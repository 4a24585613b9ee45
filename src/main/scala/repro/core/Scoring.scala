package repro.core

import repro.core.Model._
import scala.collection.mutable

/** The objective function of Problem 1 in closed form (Eqs. 1–6), plus the
  * completeness checker (Def. 3.4: valid mapping + impact equality).
  *
  * Note on the paper's Eq. (8): it swaps the b/c constants — a tuple that
  * keeps its original impact (t ∉ δ) has probability αβ per Eq. (3), and a
  * tuple with a changed impact has α(1−β). We implement Eq. (3) directly.
  */
object Scoring {

  /** log Pr(E | T1, T2, M) up to the constant of proportionality of Eq. (1).
    * Requires `e` to be complete (Pr(E) = 1 prior); callers check with
    * [[completenessViolation]] first — an incomplete E has Pr(E) = 0, i.e.
    * −∞ in log space.
    */
  def logProb(inst: Instance, e: ExplanationSet): Double = {
    var s = 0.0
    val p = inst.params
    for (t <- inst.t1.iterator ++ inst.t2.iterator) {
      s += (if (e.delta.contains(t.id)) p.costDelete
            else if (e.values.contains(t.id)) p.costChange
            else p.costKeep)
    }
    for (m <- inst.matches) {
      s += (if (e.evidence.contains((m.left, m.right))) math.log(m.p)
            else math.log(1 - m.p))
    }
    s
  }

  /** Checks Def. 3.4. Returns None when `e` is complete, otherwise a
    * human-readable description of the first violation found.
    */
  def completenessViolation(inst: Instance, e: ExplanationSet): Option[String] = {
    val matchPairs = inst.matches.map(m => (m.left, m.right)).toSet
    val ids = inst.tupleById.keySet

    // Structural sanity: evidence drawn from M, ids exist, Δ ∩ δ = ∅ (Eq. 3:
    // Pr(t | t ∈ Δ, t ∈ δ) = 0), value changes actually change something.
    e.evidence.find(pr => !matchPairs.contains(pr)).foreach { pr =>
      return Some(s"evidence pair $pr not in the initial mapping")
    }
    (e.delta ++ e.values.keySet).find(!ids.contains(_)).foreach { id =>
      return Some(s"explanation references unknown tuple $id")
    }
    e.delta.intersect(e.values.keySet).headOption.foreach { id =>
      return Some(s"tuple $id is both deleted and value-changed")
    }
    e.values.find { case (id, vc) =>
      vc.tupleId != id || vc.newImpact == vc.oldImpact ||
        vc.oldImpact != inst.tupleById(id).impact
    }.foreach { case (id, _) => return Some(s"inconsistent value change for tuple $id") }

    // Deleted tuples cannot participate in the evidence mapping (z ≤ 1 − x).
    e.evidence.find { case (l, r) => e.delta.contains(l) || e.delta.contains(r) }
      .foreach { pr => return Some(s"evidence pair $pr touches a deleted tuple") }

    // Valid mapping (Def. 3.2): degree caps implied by φ.
    if (inst.phi.capsLeft) {
      val d = e.evidence.groupBy(_._1).collectFirst { case (l, ps) if ps.size > 1 => l }
      d.foreach(l => return Some(s"T1 tuple $l has degree > 1 under ${inst.phi}"))
    }
    if (inst.phi.capsRight) {
      val d = e.evidence.groupBy(_._2).collectFirst { case (r, ps) if ps.size > 1 => r }
      d.foreach(r => return Some(s"T2 tuple $r has degree > 1 under ${inst.phi}"))
    }

    // Impact equality (Def. 3.3) over connected components of the refined
    // canonical relations under the evidence mapping. Kept tuples outside any
    // evidence pair form singleton components: their side sums must be 0.
    def refined(id: Long): Double =
      e.values.get(id).map(_.newImpact).getOrElse(inst.tupleById(id).impact)

    val kept = ids -- e.delta
    val uf = new UnionFind(kept)
    e.evidence.foreach { case (l, r) => uf.union(l, r) }
    val bySide = kept.groupBy(uf.find)
    for ((_, comp) <- bySide) {
      val leftSum  = comp.iterator.filter(inst.tupleById(_).side == 1).map(refined).sum
      val rightSum = comp.iterator.filter(inst.tupleById(_).side == 2).map(refined).sum
      if (math.abs(leftSum - rightSum) > 1e-6)
        return Some(s"impact inequality in component ${comp.toSeq.sorted}: $leftSum vs $rightSum")
    }
    None
  }

  /** Union-find over tuple positions: position `i` stands for `ids(i)`.
    * `link(a, b)` (and `union` by id) puts a's root under b's, so the roots,
    * which order `PrePartition`'s coarse nodes and the solver's components,
    * depend on that rule; path compression never changes a root.
    */
  final class UnionFind(ids: Array[Long]) {
    def this(ids: Iterable[Long]) = this(ids.toArray)
    private val parent = Array.range(0, ids.length)
    private lazy val pos = positions(ids)

    /** The root position of position `x`. */
    def root(x: Int): Int = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var c = x
      while (parent(c) != r) { val n = parent(c); parent(c) = r; c = n }
      r
    }
    def link(a: Int, b: Int): Unit = {
      val ra = root(a); val rb = root(b)
      if (ra != rb) parent(ra) = rb
    }
    def find(id: Long): Long = ids(root(pos(id)))
    def union(a: Long, b: Long): Unit = link(pos(a), pos(b))

    /** The number of classes, and each position's class: classes are
      * numbered in the order of their roots' ids.
      */
    def classes(): (Int, Array[Int]) = {
      val rootOf = Array.tabulate(ids.length)(root)
      val rootIds = ids.indices.iterator.filter(i => rootOf(i) == i).map(ids).toArray
      java.util.Arrays.sort(rootIds)
      val cls = new Array[Int](ids.length)
      for (i <- ids.indices if rootOf(i) == i) cls(i) = java.util.Arrays.binarySearch(rootIds, ids(i))
      for (i <- ids.indices) cls(i) = cls(rootOf(i))
      (rootIds.length, cls)
    }
  }

  /** Each id's position in `ids` (the last one, if an id repeats). */
  def positions(ids: Array[Long]): mutable.LongMap[Int] = {
    val pos = new mutable.LongMap[Int](ids.length)
    var i = 0
    while (i < ids.length) { pos.update(ids(i), i); i += 1 }
    pos
  }
}
