package repro.partition

import repro.core.Buckets
import repro.partition.PrePartition.CoarseGraph

/** Balanced min-edge-cut graph partitioner (the Graph Partitioning Problem,
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
  *
  * The data structures are arrays: a CSR (compressed sparse row) adjacency,
  * growth from a lazy max-heap of connectivities, as in the gain buckets
  * of Fiduccia–Mattheyses (DAC 1982) and METIS (Karypis & Kumar, SISC
  * 1998), and per-part weight tallies in refinement. Ties are broken as the
  * map-based version broke them, by [[HashOrder]]: each node's neighbours,
  * the growing part's connectivities and a node's weights to its
  * neighbouring parts are visited in the order a Scala `mutable.HashMap`
  * would iterate them, so the partitions stay the same.
  */
object Partitioner {

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
    val size = g.nodes.iterator.map(_.size).toArray
    val adj = Adjacency(g)

    // Seeds by descending size, ties by index.
    val maxSize = size.max.toLong
    val order = Array.tabulate(n)(v => ((maxSize - size(v)) << 32) | v)
    java.util.Arrays.sort(order)
    val loads = new Array[Int](n)
    var nParts = 0

    // The growing part's connectivity to each unassigned node it touches,
    // modelled as a HashMap: `inConn` marks its keys, `connSize` and
    // `connCap` are its size and table capacity.
    val connW = new Array[Double](n)
    val inConn = new Array[Boolean](n)
    val touched = new Array[Int](n)
    var nTouched = 0
    var connSize = 0
    var connCap = HashOrder.InitialCapacity
    val heap = new ConnHeap

    def absorb(v: Int): Unit = {
      var i = adj.start(v)
      while (i < adj.start(v + 1)) {
        val u = adj.node(i)
        if (assign(u) == -1) {
          val cap = HashOrder.grow(connCap, connSize)
          if (inConn(u)) connW(u) += adj.weight(i)
          else {
            inConn(u) = true; connSize += 1; connW(u) = adj.weight(i)
            touched(nTouched) = u; nTouched += 1
          }
          if (cap != connCap) { connCap = cap; heap.rekey(cap, u => inConn(u)) }
          heap.push(connW(u), u, connCap)
        }
        i += 1
      }
    }

    for (o <- order) {
      val seed = o.toInt
      if (assign(seed) == -1) {
        val part = nParts
        nParts += 1
        loads(part) = size(seed)
        assign(seed) = part
        // Grow: connectivity of unassigned nodes to the current part.
        while (nTouched > 0) { nTouched -= 1; inConn(touched(nTouched)) = false }
        connSize = 0
        connCap = HashOrder.InitialCapacity
        heap.clear()
        absorb(seed)
        var growing = true
        while (growing && loads(part) < lMax) {
          // The heap's top is the heaviest connection, first in map order
          // on ties. Entries left behind by a later update or an absorb are
          // stale; a node too large now stays too large, since the load
          // only grows (it stays in the map, only the heap drops it).
          var candidate = -1
          while (candidate < 0 && heap.nonEmpty) {
            val u = heap.topNode
            if (inConn(u) && heap.topWeight == connW(u) && loads(part) + size(u) <= lMax) candidate = u
            else heap.pop()
          }
          if (candidate < 0) growing = false
          else {
            heap.pop()
            assign(candidate) = part
            loads(part) += size(candidate)
            inConn(candidate) = false; connSize -= 1
            absorb(candidate)
          }
        }
      }
    }

    // KL-style refinement: move boundary nodes to the adjacent part with the
    // largest positive gain while respecting lMax. `weightTo` tallies a
    // node's edge weight per neighbouring part, modelled as a HashMap.
    val weightTo = new Array[Double](nParts)
    val inTally = new Array[Boolean](nParts)
    val near = new Array[Int](nParts) // the parts v's neighbours are in
    var pass = 0
    var moved = true
    while (pass < RefinePasses && moved) {
      moved = false
      for (v <- 0 until n if adj.start(v + 1) > adj.start(v)) {
        val cur = assign(v)
        var nNear = 0
        var cap = HashOrder.InitialCapacity
        var i = adj.start(v)
        while (i < adj.start(v + 1)) {
          val q = assign(adj.node(i))
          cap = HashOrder.grow(cap, nNear)
          if (inTally(q)) weightTo(q) += adj.weight(i)
          else { inTally(q) = true; weightTo(q) = adj.weight(i); near(nNear) = q; nNear += 1 }
          i += 1
        }
        val internal = if (inTally(cur)) weightTo(cur) else 0.0
        var best = -1
        var j = 0
        while (j < nNear) {
          val q = near(j)
          if (q != cur && loads(q) + size(v) <= lMax &&
              (best < 0 || weightTo(q) > weightTo(best) ||
                (weightTo(q) == weightTo(best) && HashOrder.key(q, cap) < HashOrder.key(best, cap))))
            best = q
          j += 1
        }
        j = 0
        while (j < nNear) { inTally(near(j)) = false; j += 1 }
        if (best >= 0 && weightTo(best) > internal + 1e-12) {
          loads(cur) -= size(v)
          loads(best) += size(v)
          assign(v) = best
          moved = true
        }
      }
      pass += 1
    }
    assign
  }

  /** Total weight of edges whose endpoints land in different partitions. */
  def edgeCut(g: CoarseGraph, assign: Array[Int]): Double =
    g.edgeW.indices.iterator.filter(e => assign(g.edgeA(e)) != assign(g.edgeB(e))).map(g.edgeW).sum

  /** Each node's neighbours and edge weights, `start(v) until start(v + 1)`
    * in `node`/`weight`, in the iteration order of a `mutable.HashMap`
    * holding that node's neighbours.
    */
  private final case class Adjacency(start: Array[Int], node: Array[Int], weight: Array[Double])

  private object Adjacency {
    def apply(g: CoarseGraph): Adjacency = {
      val n = g.nodes.size
      val nE = g.edgeA.length
      // Edge e's ends are entries 2e (at edgeA(e)) and 2e + 1 (at edgeB(e)),
      // so end x's neighbour is at(x ^ 1).
      val at = new Array[Int](2 * nE)
      for (e <- 0 until nE) { at(2 * e) = g.edgeA(e); at(2 * e + 1) = g.edgeB(e) }
      val rows = Buckets(n, at)
      val start = rows.start
      // Sort each row by (iteration-order key, slot in the row).
      val node = new Array[Int](2 * nE)
      val weight = new Array[Double](2 * nE)
      val keys = new Array[Long](2 * nE)
      for (v <- 0 until n) {
        val from = start(v); val to = start(v + 1)
        val cap = HashOrder.capacityAfterInserts(to - from)
        for (i <- from until to) keys(i) = (HashOrder.key(at(rows.entry(i) ^ 1), cap).toLong << 32) | (i - from)
        java.util.Arrays.sort(keys, from, to)
        for (i <- from until to) {
          val x = rows.entry(from + (keys(i) & 0xffffffffL).toInt)
          node(i) = at(x ^ 1); weight(i) = g.edgeW(x >> 1)
        }
      }
      Adjacency(start, node, weight)
    }
  }

  /** A binary max-heap of (weight, node) entries, ordered by weight and then
    * by the node's [[HashOrder.key]] at the map capacity of its push.
    */
  private final class ConnHeap {
    private var w = new Array[Double](64)
    private var key = new Array[Int](64)
    private var node = new Array[Int](64)
    private var n = 0

    def nonEmpty: Boolean = n > 0
    def clear(): Unit = n = 0
    def topNode: Int = node(0)
    def topWeight: Double = w(0)

    private def before(i: Int, j: Int): Boolean = w(i) > w(j) || (w(i) == w(j) && key(i) < key(j))

    private def swap(i: Int, j: Int): Unit = {
      val tw = w(i); w(i) = w(j); w(j) = tw
      val tk = key(i); key(i) = key(j); key(j) = tk
      val tn = node(i); node(i) = node(j); node(j) = tn
    }

    private def siftUp(from: Int): Unit = {
      var i = from
      while (i > 0 && before(i, (i - 1) / 2)) { swap(i, (i - 1) / 2); i = (i - 1) / 2 }
    }

    private def siftDown(from: Int): Unit = {
      var i = from
      var done = false
      while (!done) {
        val l = 2 * i + 1
        val r = l + 1
        var top = i
        if (l < n && before(l, top)) top = l
        if (r < n && before(r, top)) top = r
        if (top == i) done = true else { swap(i, top); i = top }
      }
    }

    def push(weight: Double, u: Int, cap: Int): Unit = {
      if (n == w.length) {
        w = java.util.Arrays.copyOf(w, 2 * n)
        key = java.util.Arrays.copyOf(key, 2 * n)
        node = java.util.Arrays.copyOf(node, 2 * n)
      }
      w(n) = weight; key(n) = HashOrder.key(u, cap); node(n) = u
      n += 1
      siftUp(n - 1)
    }

    def pop(): Unit = {
      n -= 1
      if (n > 0) { swap(0, n); siftDown(0) }
    }

    /** Re-keys the entries whose node is `live` to capacity `cap`, drops
      * the rest and restores the heap order.
      */
    def rekey(cap: Int, live: Int => Boolean): Unit = {
      var m = 0
      for (i <- 0 until n if live(node(i))) {
        w(m) = w(i); key(m) = HashOrder.key(node(i), cap); node(m) = node(i); m += 1
      }
      n = m
      for (i <- n / 2 - 1 to 0 by -1) siftDown(i)
    }
  }
}

/** The iteration order of a Scala 2.13 `mutable.HashMap[Int, _]`.
  *
  * The map keeps a table of `cap` buckets (16 at first). A key `k` has hash
  * `h = k ^ (k >>> 16)`; the map iterates its buckets in index order,
  * `h & (cap − 1)`, and each bucket in ascending `h`. Every put (a new key
  * or an update) that finds `size + 1 ≥ ⌊0.75·cap⌋` doubles `cap` first;
  * removals never shrink it. So the order is fixed by the keys and the
  * capacity, and the capacity by the history of puts.
  */
object HashOrder {

  val InitialCapacity = 16

  /** The capacity after a put into a map with `size` keys and capacity `cap`. */
  def grow(cap: Int, size: Int): Int = if (size + 1 >= (cap * 0.75).toInt) cap * 2 else cap

  /** The capacity after `n` puts of new keys into an empty map. */
  def capacityAfterInserts(n: Int): Int = {
    var cap = InitialCapacity
    for (size <- 0 until n) cap = grow(cap, size)
    cap
  }

  /** A sort key: at capacity `cap`, a map iterates its keys (each ≥ 0) in
    * ascending order of this value. It is the bucket index followed by the
    * hash's remaining high bits, which order the hashes within a bucket.
    */
  def key(k: Int, cap: Int): Int = {
    val h = k ^ (k >>> 16)
    val bits = Integer.numberOfTrailingZeros(cap)
    ((h & (cap - 1)) << (31 - bits)) | (h >>> bits)
  }
}
