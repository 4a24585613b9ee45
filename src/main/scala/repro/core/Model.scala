package repro.core

/** Core data model for the EXP-3D problem (Sections 2–3 of the paper).
  *
  * Canonical tuples, probabilistic tuple matches, attribute-match semantics
  * (φ ∈ {≡, ⊑, ⊒}), prior parameters (α, β), and explanation sets are the
  * driver-side representation that stage 2 (the solver) operates on. The
  * Spark stages (provenance, canonicalization, similarity join) produce
  * DataFrames that are collected into this model — canonical relations are
  * orders of magnitude smaller than the raw data, mirroring the paper's
  * architecture where CPLEX runs on a single node downstream of the data
  * processing.
  */
object Model {

  /** Semantic relation between two sets of matching attributes (Def. 2.1).
    *
    * `LessGeneral` is ⊑ (A1 less general than A2: many T1 tuples map to one
    * T2 tuple, so T1-side degree ≤ 1 in a valid mapping); `MoreGeneral` is ⊒
    * (T2-side degree ≤ 1); `Equiv` is ≡ (both sides degree ≤ 1).
    */
  sealed trait Phi {
    /** Does a valid mapping bound the degree of T1 (left) tuples by 1? */
    def capsLeft: Boolean = this != Phi.MoreGeneral
    /** Does a valid mapping bound the degree of T2 (right) tuples by 1? */
    def capsRight: Boolean = this != Phi.LessGeneral
    /** The side of a star's hub: the side φ leaves uncapped (T1 under ⊒,
      * T2 under ⊑; under ≡ both sides are capped and the hub is on T2).
      */
    def hubSide: Int = if (capsLeft) 2 else 1
    /** A match's (hub, leaf) ids under this orientation. */
    def hubAndLeaf(left: Long, right: Long): (Long, Long) =
      if (hubSide == 1) (left, right) else (right, left)
  }
  object Phi {
    case object Equiv       extends Phi
    case object LessGeneral extends Phi // ⊑ : many-to-one (T1 → T2)
    case object MoreGeneral extends Phi // ⊒ : one-to-many (T1 → T2)
  }

  /** A canonical tuple (a row of T1 or T2, Def. 3.1).
    *
    * @param id     identifier unique across both canonical relations
    * @param side   1 for T1, 2 for T2
    * @param key    values of the matching attributes (the identity used by
    *               the mapping); kept as strings for similarity computation
    * @param impact summed impact I (Def. 2.3 / 3.1)
    * @param attrs  remaining attribute values, used by stage-3 summarization
    */
  final case class CTuple(
      id: Long,
      side: Int,
      key: Seq[String],
      impact: Double,
      attrs: Map[String, String] = Map.empty,
  ) {
    require(side == 1 || side == 2, s"side must be 1 or 2, got $side")
  }

  /** A probabilistic tuple match (Def. 2.4): `left ∈ T1`, `right ∈ T2`,
    * `p ∈ (0, 1)` the probability they refer to the same/contained entity.
    * Probabilities are clamped away from {0, 1} upstream so log-space scoring
    * is finite.
    */
  final case class TupleMatch(left: Long, right: Long, p: Double) {
    require(p > 0.0 && p < 1.0, s"match probability must be in (0,1), got $p")
  }

  /** Prior parameters of the probabilistic model (Section 3.1): α is the
    * a-priori probability a tuple is covered by both datasets, β that its
    * impact is correct. Both in (0.5, 1): at 1, log(1−α) or log(1−β) would
    * be −∞.
    *
    * Also the star cost model that the objective reduces to for a valid
    * mapping: every selected star costs b per tuple plus one changed impact
    * c when unbalanced, and an unmatched tuple is deleted or refined to 0,
    * whichever is cheaper.
    */
  final case class Params(alpha: Double = 0.9, beta: Double = 0.9) {
    require(alpha > 0.5 && alpha < 1.0, s"alpha must be in (0.5,1), got $alpha")
    require(beta > 0.5 && beta < 1.0, s"beta must be in (0.5,1), got $beta")
    /** log Pr(t ∈ Δ): tuple deleted (provenance-based explanation). */
    val costDelete: Double = math.log(1 - alpha)
    /** log Pr(t ∉ Δ, t ∉ δ): tuple kept with unchanged impact. */
    val costKeep: Double = math.log(alpha) + math.log(beta)
    /** log Pr(t ∉ Δ, t ∈ δ): tuple kept with a changed impact. */
    val costChange: Double = math.log(alpha) + math.log(1 - beta)

    /** Cost of keeping an unmatched tuple: its impact must be refined to 0,
      * which is free only when it already is 0.
      */
    private def keepAtZeroCost(impact: Double): Double =
      if (impact == 0.0) costKeep else costChange

    /** An unmatched tuple's cost: deleted, or kept at impact 0. */
    def unmatchedCost(impact: Double): Double = math.max(costDelete, keepAtZeroCost(impact))

    /** Whether the optimum deletes an unmatched tuple (ties delete); if not,
      * it keeps the tuple and refines a non-zero impact to 0.
      */
    def deletesUnmatched(impact: Double): Boolean = costDelete >= keepAtZeroCost(impact)

    /** What an unbalanced star pays for its one changed impact. */
    def changePenalty(leafSum: Double, hubImpact: Double): Double =
      if (Params.unbalanced(leafSum, hubImpact)) costKeep - costChange else 0.0

    /** Tuple cost of a hub with `leaves` selected leaves whose impacts sum to
      * `leafSum`: b per tuple, less the change penalty; a hub without
      * leaves is an unmatched tuple.
      */
    def starCost(leaves: Int, leafSum: Double, hubImpact: Double): Double =
      if (leaves == 0) unmatchedCost(hubImpact)
      else costKeep * (leaves + 1) - changePenalty(leafSum, hubImpact)
  }

  object Params {
    /** Whether two impact sums differ beyond floating-point noise. */
    def unbalanced(a: Double, b: Double): Boolean = math.abs(a - b) > 1e-9
  }

  /** One EXP-3D problem instance over canonical relations (Problem 1). */
  final case class Instance(
      t1: Vector[CTuple],
      t2: Vector[CTuple],
      matches: Vector[TupleMatch],
      phi: Phi,
      params: Params = Params(),
  ) {
    lazy val tupleById: Map[Long, CTuple] = (t1 ++ t2).map(t => t.id -> t).toMap
    require(t1.forall(_.side == 1) && t2.forall(_.side == 2), "sides mis-assigned")
    require(tupleById.size == t1.size + t2.size, "duplicate tuple ids")
  }

  /** A value-based explanation: tuple `tupleId` should have impact
    * `newImpact` instead of `oldImpact` (Def. 2.5).
    */
  final case class ValueChange(tupleId: Long, oldImpact: Double, newImpact: Double)

  /** A complete explanation set E = (Δ, δ | M*) (Section 2.2).
    *
    * @param delta    ids of tuples in provenance-based explanations (Δ)
    * @param values   value-based explanations (δ), keyed by tuple id
    * @param evidence the evidence mapping M* ⊆ M as (leftId, rightId) pairs
    */
  final case class ExplanationSet(
      delta: Set[Long],
      values: Map[Long, ValueChange],
      evidence: Set[(Long, Long)],
  ) {
    def explanationTupleIds: Set[Long] = delta ++ values.keySet
  }

  /** Where a stage-2 solve spent its effort.
    *
    * @param components   components searched (those with at least one match)
    * @param largestComponent the largest searched component's match count
    * @param cutMatches   matches cut by the grouping (0 for NOOPT)
    * @param splitS       seconds computing the grouping (smart partitioning)
    * @param setupS       seconds indexing, splitting into components,
    *                     setting up the searches and decoding
    * @param searchS      seconds in branch-and-bound
    */
  final case class SolveStats(
      components: Int = 0,
      largestComponent: Int = 0,
      cutMatches: Int = 0,
      splitS: Double = 0.0,
      setupS: Double = 0.0,
      searchS: Double = 0.0,
  ) {
    override def toString: String =
      f"$components components (largest $largestComponent matches), $cutMatches cut; " +
        f"split $splitS%.3fs, set-up $setupS%.3fs, search $searchS%.3fs"
  }

  object SolveStats {
    /** The mean of each field (counts rounded down), but the largest
      * component's maximum.
      */
    def mean(ss: Seq[SolveStats]): SolveStats = SolveStats(
      ss.map(_.components).sum / ss.size,
      ss.map(_.largestComponent).max,
      ss.map(_.cutMatches).sum / ss.size,
      ss.map(_.splitS).sum / ss.size,
      ss.map(_.setupS).sum / ss.size,
      ss.map(_.searchS).sum / ss.size,
    )
  }

  /** Result of a solver run: the explanations, their score under the
    * objective of Problem 1 (log space), and whether the search completed
    * (false when a node/time cap returned the best incumbent). `nodes` is
    * the number of branch-and-bound nodes, summed over components (0 for
    * solutions that did not come from a search), and `stats` says where
    * the solve's time went.
    */
  final case class Solution(
      explanations: ExplanationSet,
      logProb: Double,
      proved: Boolean,
      nodes: Long = 0L,
      stats: SolveStats = SolveStats(),
  )
}
