package repro.partition

import repro.core.ExplainSolver.Indexed
import repro.core.Model.Instance
import repro.core.{Buckets, Scoring}

/** Pre-partitioning (Algorithm 2): merge tuples connected by
  * high-probability matches (p ≥ θ_h) into coarse nodes, then aggregate the
  * remaining match weights between coarse nodes using the paper's
  * reweighting: `w = p·R` for p ≥ θ_h, `p/R` for p ≤ θ_l, else `p`. This is
  * the extra coarsening level on top of the multilevel partitioner that
  * makes large-R instances cheap to partition and guarantees the partitioner
  * never cuts a high-probability match.
  *
  * Linear in |T| + |M|: a union-find over tuple positions, and the edges
  * aggregated per coarse node pair with one stamp array instead of a map.
  */
object PrePartition {

  final case class Config(thetaL: Double = 0.1, thetaH: Double = 0.9, r: Double = 100.0) {
    require(thetaL < thetaH, "θ_l must be below θ_h")
    def weight(p: Double): Double =
      if (p >= thetaH) p * r else if (p <= thetaL) p / r else p
  }

  /** A coarse node: the merged tuples and their count (the balancing size). */
  final case class CoarseNode(members: Vector[Long]) {
    def size: Int = members.size
  }

  /** The coarse graph.
    *
    * @param nodes  coarse nodes in the order of their union-find roots' ids,
    *               members in `tupleById` order
    * @param nodeOf each tuple position's coarse node (positions as in
    *               [[repro.core.ExplainSolver.Indexed]])
    * @param edgeA  edge `e` joins nodes `edgeA(e) < edgeB(e)` with weight
    *               `edgeW(e)`, summed over its matches in match order; one
    *               edge per node pair, ordered by `edgeA` and then by first
    *               match
    */
  final case class CoarseGraph(
      nodes: Vector[CoarseNode],
      nodeOf: Array[Int],
      edgeA: Array[Int],
      edgeB: Array[Int],
      edgeW: Array[Double],
  )

  def run(inst: Instance, cfg: Config = Config()): CoarseGraph = run(new Indexed(inst), cfg)

  private[partition] def run(ix: Indexed, cfg: Config): CoarseGraph = {
    val nT = ix.ids.length
    val nM = ix.p.length
    // Union-find merge over high-probability matches (FindHighProbTuplesDFS
    // in the paper — union-find is the iterative equivalent). Coarse nodes
    // are ordered by root id, so the roots fix the partitioner's tie breaks.
    val uf = new Scoring.UnionFind(ix.ids)
    for (m <- 0 until nM if ix.p(m) >= cfg.thetaH) uf.link(ix.left(m), ix.right(m))
    val (n, nodeOf) = uf.classes()
    val members = Array.fill(n)(Vector.newBuilder[Long])
    for (i <- 0 until nT) members(nodeOf(i)) += ix.ids(i)

    // Matches between distinct nodes, bucketed by their lower node in match
    // order; within a bucket, `slot(b)` is node b's edge while `mark(b)`
    // names the bucket.
    val byLower = Buckets(n, Array.tabulate(nM) { m =>
      val a = nodeOf(ix.left(m)); val b = nodeOf(ix.right(m))
      if (a != b) math.min(a, b) else -1
    })
    val nCross = byLower.entry.length
    val edgeA = new Array[Int](nCross)
    val edgeB = new Array[Int](nCross)
    val edgeW = new Array[Double](nCross)
    val mark = Array.fill(n)(-1)
    val slot = new Array[Int](n)
    var nE = 0
    for (a <- 0 until n; k <- byLower.start(a) until byLower.start(a + 1)) {
      val m = byLower.entry(k)
      val b = nodeOf(ix.left(m)) + nodeOf(ix.right(m)) - a
      val w = cfg.weight(ix.p(m))
      if (mark(b) == a) edgeW(slot(b)) += w
      else { mark(b) = a; slot(b) = nE; edgeA(nE) = a; edgeB(nE) = b; edgeW(nE) = w; nE += 1 }
    }
    CoarseGraph(members.iterator.map(b => CoarseNode(b.result())).toVector, nodeOf,
      edgeA.take(nE), edgeB.take(nE), edgeW.take(nE))
  }
}
