package repro.core

import repro.core.Model._
import repro.partition.{MapPrePartition, PrePartition, SmartPartition}

/** Seeded random instances and exact digests of what stage 2 derives from
  * them, for pinning baseline and partition results across refactors.
  * Doubles enter the digests by their bit patterns.
  */
object PinnedInstances {

  private val positive = (1 to 4).map(_.toDouble)
  private val withZero = (0 to 4).map(_.toDouble)
  private val withNeg = (-3 to 5).map(_.toDouble)
  private val phis = Seq(Phi.Equiv, Phi.LessGeneral, Phi.MoreGeneral)
  private val impactSets = Seq(positive, withZero, withNeg)
  private val paramSets = Seq(Params(), Params(0.55, 0.95), Params(0.7, 0.6), Params(0.95, 0.55))
  private val probs = Array(0.05, 0.3, 0.55, 0.7, 0.85, 0.92, 0.95)

  /** Case `i` of 20: φ cycles every case, impacts every three cases (so
    * each φ meets each impact set) and priors every four.
    */
  def instance(i: Int, n: Int, density: Double): Instance = {
    val rnd = new scala.util.Random(1000L + i)
    val impacts = impactSets((i / 3) % impactSets.size)
    val t1 = (0 until n).map(k => CTuple(k, 1, Seq(s"l$k"), impacts(rnd.nextInt(impacts.size)))).toVector
    val t2 = (0 until n).map(k => CTuple(10000 + k, 2, Seq(s"r$k"), impacts(rnd.nextInt(impacts.size)))).toVector
    val ms = (for (a <- 0 until n; b <- 0 until n if rnd.nextDouble() < density)
      yield TupleMatch(a, 10000 + b, probs(rnd.nextInt(probs.length)))).toVector
    Instance(t1, t2, ms, phis(i % phis.size), paramSets(i % paramSets.size))
  }

  val Cases: Range = 0 until 20

  /** An evidence set for decode: each match kept with probability 1/2, so
    * components may break the valid-mapping caps, as RSWOOSH's can.
    */
  def someEvidence(inst: Instance, i: Int): Set[(Long, Long)] = {
    val rnd = new scala.util.Random(2000L + i)
    inst.matches.filter(_ => rnd.nextBoolean()).map(m => (m.left, m.right)).toSet
  }

  def explanations(e: ExplanationSet): String =
    Stage1Digest.sha(
      e.delta.toSeq.sorted.iterator.map(id => s"d$id") ++
        e.values.toSeq.sortBy(_._1).iterator.map { case (id, v) =>
          s"v$id,${v.tupleId},${Stage1Digest.bits(v.oldImpact)},${Stage1Digest.bits(v.newImpact)}"
        } ++
        e.evidence.toSeq.sorted.iterator.map { case (l, r) => s"e$l,$r" })

  /** Coarse nodes in order with their members in order, the aggregated
    * edges with their weights, and the tuple → node map.
    */
  def coarse(g: PrePartition.CoarseGraph): String =
    coarse(g.nodes.map(_.members), g.edgeA.indices.map(e => ((g.edgeA(e), g.edgeB(e)), g.edgeW(e))))

  /** [[coarse]] of the map-based oracle's graph. */
  def coarse(g: MapPrePartition.CoarseGraph): String = {
    val fromNodeOf = g.nodeOf.toSeq.sorted
    val fromMembers = g.nodes.zipWithIndex.flatMap { case (c, k) => c.members.map(_ -> k) }.sorted
    require(fromNodeOf == fromMembers, "nodeOf disagrees with the node members")
    coarse(g.nodes.map(_.members), g.edges.toSeq)
  }

  private def coarse(members: Seq[Seq[Long]], edges: Seq[((Int, Int), Double)]): String =
    Stage1Digest.sha(
      members.iterator.map(_.mkString("n", ",", "")) ++
        edges.sortBy(_._1).iterator.map { case ((a, b), w) => s"w$a,$b,${Stage1Digest.bits(w)}" } ++
        members.zipWithIndex.flatMap { case (ms, k) => ms.map(_ -> k) }.sorted.iterator
          .map { case (id, node) => s"o$id,$node" })

  /** Sub-instances in order (tuples and matches in order), then the cut matches. */
  def split(p: SmartPartition.Partitioned): String =
    Stage1Digest.sha(
      p.subInstances.iterator.flatMap { s =>
        Iterator("sub", Stage1Digest.tuples(s.t1 ++ s.t2), Stage1Digest.matches(s.matches))
      } ++ Iterator("cut", Stage1Digest.matches(p.cutMatches)))
}
