package repro.baselines

import repro.core.Model._
import repro.core.ExplainSolver
import repro.partition.SmartPartition

/** Common interface for all evaluated algorithms (Section 5.1.3): each maps
  * an EXP-3D instance to an explanation set.
  */
trait Algorithm {
  def name: String
  def derive(inst: Instance): ExplanationSet
}

/** Shared decode used by RSWOOSH, THRESHOLD, GREEDY and EXACTCOVER
  * (Section 5.1.3): given a deterministic evidence mapping, tuples without a
  * match become provenance-based explanations and connected components with
  * unequal impact sums yield a value-based explanation. The changed tuple is
  * the component's largest-impact tuple on the hub side (deterministic; the
  * baselines' decode is underspecified in the paper).
  */
object EvidenceToExplanations {

  def decode(inst: Instance, evidence: Set[(Long, Long)]): ExplanationSet = {
    val matched = evidence.flatMap { case (l, r) => Seq(l, r) }
    val delta = inst.tupleById.keySet.diff(matched)

    val uf = new repro.core.Scoring.UnionFind(matched)
    evidence.foreach { case (l, r) => uf.union(l, r) }
    val values = matched.groupBy(uf.find).flatMap { case (_, comp) =>
      val ts = comp.toSeq.map(inst.tupleById)
      val lSum = ts.filter(_.side == 1).map(_.impact).sum
      val rSum = ts.filter(_.side == 2).map(_.impact).sum
      if (Params.unbalanced(lSum, rSum)) {
        // Every evidence pair has a tuple on each side, so hubs exist.
        val target = ts.filter(_.side == inst.phi.hubSide).maxBy(t => (math.abs(t.impact), t.id))
        val newImpact = if (target.side == 2) lSum - (rSum - target.impact)
                        else rSum - (lSum - target.impact)
        Some(target.id -> ValueChange(target.id, target.impact, newImpact))
      } else None
    }
    ExplanationSet(delta, values, evidence)
  }
}

/** An algorithm whose result comes from the EXP-3D solver, with the
  * solver's `proved` flag and objective.
  */
trait SolverBacked extends Algorithm {
  def solve(inst: Instance): Solution
  def derive(inst: Instance): ExplanationSet = solve(inst).explanations
}

/** EXPLAIN3D without the smart-partitioning optimization (NOOPT). */
final case class Explain3DNoOpt(cfg: ExplainSolver.Config = ExplainSolver.Config())
    extends SolverBacked {
  val name = "EXPLAIN3D-NOOPT"
  def solve(inst: Instance): Solution = ExplainSolver.solve(inst, cfg)
}

/** EXPLAIN3D with smart partitioning at a fixed batch size (BATCH-<n>). */
final case class Explain3DBatch(batch: Int, cfg: ExplainSolver.Config = ExplainSolver.Config())
    extends SolverBacked {
  val name = s"EXPLAIN3D-BATCH-$batch"
  def solve(inst: Instance): Solution = SmartPartition.solve(inst, SmartPartition.Config(batch), cfg)
}
