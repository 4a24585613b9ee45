package repro.partition

import repro.core.Model._
import repro.core.ExplainSolver

/** The smart-partitioning algorithm (Algorithm 3) and the partitioned
  * stage-2 solve.
  *
  * Pre-partition the bipartite match graph (Algorithm 2), partition the
  * coarse graph with the balanced min-cut partitioner, then solve one
  * EXP-3D subproblem per partition. Matches cut by the partitioning are
  * excluded from every subproblem and scored as unselected (log(1−p)), so
  * the reported objective is comparable with the unpartitioned solve.
  */
object SmartPartition {

  final case class Config(
      batchSize: Int,
      pre: PrePartition.Config = PrePartition.Config(),
  )

  final case class Partitioned(
      subInstances: Vector[Instance],
      cutMatches: Vector[TupleMatch],
  )

  /** Splits `inst` into subproblems of ≈`batchSize` tuples each
    * (`k = ⌈(|T1|+|T2|)/batch⌉`, `L_max = batch`, as in Section 5.3).
    */
  def split(inst: Instance, cfg: Config): Partitioned = {
    val coarse = PrePartition.run(inst, cfg.pre)
    val total = inst.t1.size + inst.t2.size
    val k = math.max(1, math.ceil(total.toDouble / cfg.batchSize).toInt)
    val assign = Partitioner.partition(coarse, k, cfg.batchSize)

    val partOf: Map[Long, Int] = coarse.nodeOf.map { case (id, node) => id -> assign(node) }
    val nParts = if (assign.isEmpty) 0 else assign.max + 1

    val t1ByPart = inst.t1.groupBy(t => partOf(t.id))
    val t2ByPart = inst.t2.groupBy(t => partOf(t.id))
    val (inside, cut) = inst.matches.partition(m => partOf(m.left) == partOf(m.right))
    val mByPart = inside.groupBy(m => partOf(m.left))

    val subs = (0 until nParts).iterator.map { p =>
      Instance(
        t1ByPart.getOrElse(p, Vector.empty),
        t2ByPart.getOrElse(p, Vector.empty),
        mByPart.getOrElse(p, Vector.empty),
        inst.phi,
        inst.params,
      )
    }.filter(s => s.t1.nonEmpty || s.t2.nonEmpty).toVector
    Partitioned(subs, cut)
  }

  /** Partitioned stage-2 solve: union of per-partition solutions plus the
    * log(1−p) contribution of every cut match.
    */
  def solve(inst: Instance, cfg: Config, solverCfg: ExplainSolver.Config): Solution = {
    val parts = split(inst, cfg)
    // The time limit is a budget for the WHOLE partitioned solve: each
    // subproblem gets the remaining wall-clock, not a fresh allowance.
    val deadline = System.nanoTime() + solverCfg.timeLimitMs * 1000000L
    var logProb = parts.cutMatches.iterator.map(m => math.log(1 - m.p)).sum
    var proved = true
    var nodes = 0L
    var delta = Set.empty[Long]
    var values = Map.empty[Long, ValueChange]
    var evidence = Set.empty[(Long, Long)]
    for (sub <- parts.subInstances) {
      val remainingMs = math.max(1L, (deadline - System.nanoTime()) / 1000000L)
      val s = ExplainSolver.solve(sub, solverCfg.copy(timeLimitMs = remainingMs))
      logProb += s.logProb
      proved &&= s.proved
      nodes += s.nodes
      delta ++= s.explanations.delta
      values ++= s.explanations.values
      evidence ++= s.explanations.evidence
    }
    Solution(ExplanationSet(delta, values, evidence), logProb, proved, nodes)
  }
}
