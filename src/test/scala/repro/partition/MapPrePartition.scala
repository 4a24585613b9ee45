package repro.partition

import repro.core.Model.{Instance, TupleMatch}
import repro.core.Scoring
import repro.partition.PrePartition.{CoarseNode, Config}
import scala.collection.mutable

/** Test oracle: the map-based pre-partitioning that [[PrePartition]]
  * replaced, kept to check that the array-based one builds the same coarse
  * graph.
  *
  * Pre-partitioning (Algorithm 2): merge tuples connected by
  * high-probability matches (p ≥ θ_h) into coarse nodes, then aggregate the
  * remaining match weights between coarse nodes using the paper's
  * reweighting: `w = p·R` for p ≥ θ_h, `p/R` for p ≤ θ_l, else `p`. This is
  * the extra coarsening level on top of the multilevel partitioner that
  * makes large-R instances cheap to partition and guarantees the partitioner
  * never cuts a high-probability match.
  */
object MapPrePartition {

  final case class CoarseGraph(
      nodes: Vector[CoarseNode],
      edges: Map[(Int, Int), Double], // (minNode, maxNode) -> aggregated weight
      nodeOf: Map[Long, Int],         // tuple id -> coarse node index
  )

  def run(inst: Instance, cfg: Config = Config()): CoarseGraph =
    run(inst.tupleById.keys.toVector, inst.matches, cfg)

  def run(tupleIds: Vector[Long], matches: Vector[TupleMatch], cfg: Config): CoarseGraph = {
    // Union-find merge over high-probability matches (FindHighProbTuplesDFS
    // in the paper — union-find is the iterative equivalent). Coarse nodes
    // are ordered by root id, so the roots fix the partitioner's tie breaks.
    val uf = new Scoring.UnionFind(tupleIds)
    matches.foreach(m => if (m.p >= cfg.thetaH) uf.union(m.left, m.right))

    val roots = tupleIds.map(uf.find).distinct.sorted
    val nodeIdx = roots.zipWithIndex.toMap
    val members = Array.fill(roots.size)(Vector.newBuilder[Long])
    tupleIds.foreach(id => members(nodeIdx(uf.find(id))) += id)
    val nodeOf = tupleIds.iterator.map(id => id -> nodeIdx(uf.find(id))).toMap

    // Aggregate edge weights between distinct coarse nodes.
    val edges = mutable.Map.empty[(Int, Int), Double]
    matches.foreach { m =>
      val a = nodeOf(m.left); val b = nodeOf(m.right)
      if (a != b) {
        val key = if (a < b) (a, b) else (b, a)
        edges(key) = edges.getOrElse(key, 0.0) + cfg.weight(m.p)
      }
    }
    CoarseGraph(members.map(b => CoarseNode(b.result())).toVector, edges.toMap, nodeOf)
  }
}
