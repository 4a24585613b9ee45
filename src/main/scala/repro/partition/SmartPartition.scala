package repro.partition

import repro.core.Model._
import repro.core.ExplainSolver

/** The smart-partitioning algorithm (Algorithm 3) and the partitioned
  * stage-2 solve.
  *
  * Pre-partition the bipartite match graph (Algorithm 2), then partition the
  * coarse graph with the balanced min-cut partitioner. Solving one EXP-3D
  * subproblem per partition, with the matches cut by the partitioning left
  * out and scored as unselected (log(1−p)), is one exact solve over the
  * match graph without the cut matches: [[ExplainSolver.solve]] with the
  * partition as its grouping. The reported objective is therefore
  * comparable with the unpartitioned solve.
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

  /** The part of every tuple position of `ix`, into parts of at most
    * `batchSize` tuples each (`L_max = batch`, as in Section 5.3), apart
    * from a coarse node larger than that. The parts follow from `L_max`
    * alone: [[Partitioner.partition]] never reads its target part count,
    * given here as the paper's `k = ⌈(|T1|+|T2|)/batch⌉`.
    */
  private def partOf(ix: ExplainSolver.Indexed, cfg: Config): Array[Int] = {
    val coarse = PrePartition.run(ix, cfg.pre)
    val total = ix.ids.length
    val k = math.max(1, math.ceil(total.toDouble / cfg.batchSize).toInt)
    val assign = Partitioner.partition(coarse, k, cfg.batchSize)
    coarse.nodeOf.map(assign)
  }

  /** Splits `inst` into one sub-instance per non-empty part, in part order,
    * and the matches cut between parts.
    */
  def split(inst: Instance, cfg: Config): Partitioned = {
    val ix = new ExplainSolver.Indexed(inst)
    val partAt = partOf(ix, cfg)
    def part(id: Long): Int = partAt(ix.pos(id))
    val t1ByPart = inst.t1.groupBy(t => part(t.id))
    val t2ByPart = inst.t2.groupBy(t => part(t.id))
    val (inside, cut) = inst.matches.partition(m => part(m.left) == part(m.right))
    val mByPart = inside.groupBy(m => part(m.left))

    val subs = (t1ByPart.keySet ++ t2ByPart.keySet).toVector.sorted.map { p =>
      Instance(
        t1ByPart.getOrElse(p, Vector.empty),
        t2ByPart.getOrElse(p, Vector.empty),
        mByPart.getOrElse(p, Vector.empty),
        inst.phi,
        inst.params,
      )
    }
    Partitioned(subs, cut)
  }

  /** Partitioned stage-2 solve: one exact solve with every cross-part match
    * cut. Its [[SolveStats]] count the partitioning as split time.
    */
  def solve(inst: Instance, cfg: Config, solverCfg: ExplainSolver.Config): Solution = {
    val t0 = System.nanoTime()
    val ix = new ExplainSolver.Indexed(inst)
    val t1 = System.nanoTime()
    val group = partOf(ix, cfg)
    ExplainSolver.solve(ix, solverCfg, group, t0, splitS = (System.nanoTime() - t1) / 1e9)
  }
}
