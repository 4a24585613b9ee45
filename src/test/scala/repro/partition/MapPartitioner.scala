package repro.partition

import repro.partition.MapPrePartition.CoarseGraph
import scala.collection.mutable

/** Test oracle: the map-based partitioner that [[Partitioner]] replaced,
  * kept to check that the array-based one assigns every node the same part.
  *
  * Balanced min-edge-cut graph partitioner (the Graph Partitioning Problem,
  * Problem 2). Substitute for hMETIS/METIS, which are unavailable offline:
  * greedy graph growing (pick the heaviest-connected unassigned node while
  * the partition stays under `lMax`) followed by Kernighan–Lin-style
  * boundary refinement passes that move nodes to the adjacent partition with
  * the largest cut-weight gain, respecting the balance constraint.
  *
  * A coarse node larger than `lMax` (a pre-partition cluster that cannot be
  * split without cutting a high-probability match) becomes its own oversized
  * partition — the same behaviour a multilevel partitioner exhibits when a
  * coarsening-level vertex exceeds the balance bound.
  */
object MapPartitioner {

  /** Kernighan–Lin refinement passes after the greedy growth. */
  private val RefinePasses = 2

  /** Returns the partition index of each coarse node. The parts follow from
    * `lMax` alone: the greedy pass opens a part whenever the growing one
    * cannot take another node. `k`, the target part count, is not read.
    */
  def partition(g: CoarseGraph, k: Int, lMax: Int): Array[Int] = {
    val n = g.nodes.size
    val assign = Array.fill(n)(-1)
    if (n == 0) return assign

    // Adjacency over coarse nodes.
    val adj = Array.fill(n)(mutable.Map.empty[Int, Double])
    g.edges.foreach { case ((a, b), w) =>
      adj(a)(b) = adj(a).getOrElse(b, 0.0) + w
      adj(b)(a) = adj(b).getOrElse(a, 0.0) + w
    }

    val order = (0 until n).sortBy(i => -g.nodes(i).size)
    val loads = mutable.ArrayBuffer.empty[Int]

    for (seed <- order if assign(seed) == -1) {
      val part = loads.size
      loads += g.nodes(seed).size
      assign(seed) = part
      // Grow: connectivity of unassigned nodes to the current part.
      val conn = mutable.Map.empty[Int, Double]
      def absorb(v: Int): Unit =
        adj(v).foreach { case (u, w) =>
          if (assign(u) == -1) conn(u) = conn.getOrElse(u, 0.0) + w
        }
      absorb(seed)
      var growing = true
      while (growing && loads(part) < lMax) {
        val candidate = conn.iterator
          .filter { case (u, _) => assign(u) == -1 && loads(part) + g.nodes(u).size <= lMax }
          .maxByOption(_._2)
        candidate match {
          case Some((u, _)) =>
            assign(u) = part
            loads(part) += g.nodes(u).size
            conn.remove(u)
            absorb(u)
          case None => growing = false
        }
      }
    }

    // KL-style refinement: move boundary nodes to the adjacent part with the
    // largest positive gain while respecting lMax.
    var pass = 0
    var moved = true
    while (pass < RefinePasses && moved) {
      moved = false
      for (v <- 0 until n if adj(v).nonEmpty) {
        val cur = assign(v)
        val weightTo = mutable.Map.empty[Int, Double]
        adj(v).foreach { case (u, w) =>
          weightTo(assign(u)) = weightTo.getOrElse(assign(u), 0.0) + w
        }
        val internal = weightTo.getOrElse(cur, 0.0)
        val best = weightTo.iterator
          .filter { case (p2, _) => p2 != cur && loads(p2) + g.nodes(v).size <= lMax }
          .maxByOption(_._2)
        best match {
          case Some((p2, w)) if w > internal + 1e-12 =>
            loads(cur) -= g.nodes(v).size
            loads(p2) += g.nodes(v).size
            assign(v) = p2
            moved = true
          case _ => ()
        }
      }
      pass += 1
    }
    assign
  }

  /** Total weight of edges whose endpoints land in different partitions. */
  def edgeCut(g: CoarseGraph, assign: Array[Int]): Double =
    g.edges.iterator.collect { case ((a, b), w) if assign(a) != assign(b) => w }.sum
}
