package repro.core

import repro.core.Model._
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Production stage-2 solver: exact branch-and-bound over the EXP-3D
  * objective (Problem 1), equivalent to solving the paper's MILP with CPLEX
  * (validated in tests against brute-force enumeration of that MILP, built
  * by the test-scope `MilpBuilder`).
  *
  * Structure exploited: in a valid mapping (Def. 3.2) at least one side has
  * degree ≤ 1, so every connected component of the *selected* mapping is a
  * star whose hub is on the uncapped side. With match variables fixed, the
  * optimal value-based explanations have closed form — a balanced star keeps
  * all impacts (cost b per tuple), an unbalanced star changes exactly one
  * impact (one c, rest b), and an unmatched kept tuple must refine its impact
  * to 0; [[Model.Params]] holds this star cost model. The search branches
  * only on match selection, with constraint propagation on degree caps and
  * an optimistic per-leaf bound.
  *
  * Node/time caps make large instances return the best incumbent with
  * `proved = false` — exactly the behaviour that motivates the paper's
  * smart-partitioning optimizer. This is the only stage-2 solve loop: NOOPT
  * solves with one group, and smart partitioning (BATCH) passes its
  * partition as the grouping, which only decides which matches are cut.
  *
  * The solve works on primitive arrays: the set-up before the search is
  * linear in |T| + |M|, the search keeps its incumbent lazily, and each
  * [[Model.Solution]] reports its [[Model.SolveStats]].
  */
object ExplainSolver {

  /** @param nodeCap     branch-and-bound node budget *per connected
    *                     component* (the global budget is the time limit)
    * @param timeLimitMs wall-clock budget for the whole solve
    */
  final case class Config(nodeCap: Long = 5_000_000L, timeLimitMs: Long = 120_000L)

  /** An instance's tuples and matches by position, for the array-based
    * stage-2 passes: tuples in `inst.tupleById` order, matches in
    * `inst.matches` order, each match's ends as tuple positions.
    */
  private[repro] final class Indexed(val inst: Instance) {
    val tuples: Array[CTuple] = inst.tupleById.values.toArray
    val ids: Array[Long] = tuples.map(_.id)
    val pos: mutable.LongMap[Int] = Scoring.positions(ids)
    val left = new Array[Int](inst.matches.size)
    val right = new Array[Int](inst.matches.size)
    val p = new Array[Double](inst.matches.size)
    locally {
      var i = 0
      inst.matches.foreach { m => left(i) = pos(m.left); right(i) = pos(m.right); p(i) = m.p; i += 1 }
    }
  }

  /** Solves `inst` exactly, one connected component at a time. One
    * deadline covers the whole solve, the node cap applies per component,
    * and the solution is proved only if every component is.
    */
  def solve(inst: Instance, config: Config = Config()): Solution = {
    val t0 = System.nanoTime()
    val ix = new Indexed(inst)
    solve(ix, config, new Array[Int](ix.ids.length), t0, splitS = 0.0)
  }

  /** [[solve]] with tuple `i` in group `group(i)` (a smart partition). A
    * match whose ends lie in different groups is cut: it never joins a
    * component and is never evidence, and it adds its unselected cost
    * log(1−p). The solve's set-up started at `t0`, of which `splitS`
    * seconds went to computing `group`.
    *
    * Everything before the search is linear in |T| + |M|: one union-find
    * over positions, the tuples and kept matches grouped by component in
    * two [[Buckets]] (components by root id, tuples and matches in instance
    * order), and each cut match's log(1−p) summed first, in match order.
    */
  private[repro] def solve(ix: Indexed, config: Config, group: Array[Int], t0: Long, splitS: Double): Solution = {
    require(
      !hasDuplicatePair(ix),
      "duplicate (left,right) pairs in matches — stage 1 emits one match per pair")
    val deadline = System.nanoTime() + config.timeLimitMs * 1000000L
    val inst = ix.inst
    val nT = ix.ids.length
    val nM = ix.p.length

    // Split into connected components of the uncut candidate graph; each
    // is an independent subproblem (presolve step of any MILP solver).
    val uf = new Scoring.UnionFind(ix.ids)
    val kept = new Array[Boolean](nM)
    var totalLogProb = 0.0
    var nCut = 0
    for (m <- 0 until nM) {
      if (group(ix.left(m)) == group(ix.right(m))) { kept(m) = true; uf.link(ix.left(m), ix.right(m)) }
      else { totalLogProb += math.log(1 - ix.p(m)); nCut += 1 }
    }
    val (nComp, compOf) = uf.classes()
    val tuples = Buckets(nComp, compOf)
    val matches = Buckets(nComp, Array.tabulate(nM)(m => if (kept(m)) compOf(ix.left(m)) else -1))
    val local = new Array[Int](nT) // a tuple's index within its component, set by each Component

    var proved = true
    var nodes = 0L
    var searched = 0
    var largest = 0
    var searchNs = 0L
    val delta = Set.newBuilder[Long]
    val values = Map.newBuilder[Long, ValueChange]
    val evidence = Set.newBuilder[(Long, Long)]
    val matched = new Array[Boolean](nT)

    val p = inst.params
    def emitUnmatched(t: CTuple): Unit =
      if (p.deletesUnmatched(t.impact)) delta += t.id
      else if (t.impact != 0.0) values += t.id -> ValueChange(t.id, t.impact, 0.0)

    for (c <- 0 until nComp) {
      val nE = matches.start(c + 1) - matches.start(c)
      if (nE == 0) {
        // Singleton (or matchless) tuples: closed form.
        for (k <- tuples.start(c) until tuples.start(c + 1)) {
          val t = ix.tuples(tuples.entry(k))
          totalLogProb += p.unmatchedCost(t.impact); emitUnmatched(t)
        }
      } else {
        searched += 1
        largest = math.max(largest, nE)
        val comp = new Component(ix, tuples, matches, c, local, inst.phi, p)
        val s0 = System.nanoTime()
        val res = comp.solve(config.nodeCap, deadline)
        searchNs += System.nanoTime() - s0
        proved &&= res.proved
        nodes += res.nodesUsed
        totalLogProb += res.logProb
        // Decode this component's incumbent, in selection order. Stars:
        // an unbalanced star changes its hub's impact to its leaves' sum.
        val hubSum = new Array[Double](comp.nT)
        val hubSeen = new Array[Boolean](comp.nT)
        val hubs = new ArrayBuffer[Int]
        res.selected.foreach { e =>
          val m = comp.matchAt(e)
          evidence += ((ix.ids(ix.left(m)), ix.ids(ix.right(m))))
          matched(ix.left(m)) = true; matched(ix.right(m)) = true
          val h = comp.eHub(e); val leafImpact = comp.impact(comp.eLeaf(e))
          if (hubSeen(h)) hubSum(h) += leafImpact
          else { hubSeen(h) = true; hubSum(h) = leafImpact; hubs += h }
        }
        hubs.foreach { h =>
          val hub = ix.tuples(comp.tupleAt(h))
          if (Params.unbalanced(hubSum(h), hub.impact))
            values += hub.id -> ValueChange(hub.id, hub.impact, hubSum(h))
        }
        for (j <- 0 until comp.nT)
          if (!matched(comp.tupleAt(j))) emitUnmatched(ix.tuples(comp.tupleAt(j)))
      }
    }

    val e = ExplanationSet(delta.result(), values.result(), evidence.result())
    val searchS = searchNs / 1e9
    val stats = SolveStats(searched, largest, nCut, splitS,
      setupS = (System.nanoTime() - t0) / 1e9 - splitS - searchS, searchS)
    Solution(e, totalLogProb, proved, nodes, stats)
  }

  /** Whether two matches share (left, right): the matches bucketed by
    * their left end, each bucket's right ends stamped as they are seen.
    */
  private def hasDuplicatePair(ix: Indexed): Boolean = {
    val nT = ix.ids.length
    val byLeft = Buckets(nT, ix.left)
    val seenBy = Array.fill(nT)(-1)
    var l = 0
    while (l < nT) {
      var k = byLeft.start(l)
      while (k < byLeft.start(l + 1)) {
        val r = ix.right(byLeft.entry(k))
        if (seenBy(r) == l) return true
        seenBy(r) = l
        k += 1
      }
      l += 1
    }
    false
  }

  private final case class CompResult(
      logProb: Double,
      selected: Array[Int], // the incumbent's edges, in selection order
      proved: Boolean,
      nodesUsed: Long,
  )

  /** Branch-and-bound over connected component `c`: its tuples and matches
    * are bucket `c` of `tuples` and of `matches`, both in instance order.
    * `fill` writes each of its tuples' index within the component into the
    * shared array `local`.
    *
    * Each node costs what it changed, not O(|E| + |T|):
    *  - Branch order is static. An edge's branch score `eGain(e) + (b − u(leaf))`
    *    never changes during a solve, so edges are sorted once by
    *    (−score, index) and a node takes the first eligible edge in that
    *    order — the highest score, lowest index on ties. Descending only
    *    makes edges ineligible, so a child resumes the scan after its
    *    parent's pick instead of at the start.
    *  - The bound caches each leaf's optimistic lift and recomputes only
    *    dirty leaves: selecting or undoing (l, h) dirties l and every leaf
    *    adjacent to h, rejecting e dirties e's leaf. The lifts are summed
    *    left to right over the leaves, the same order as a full rescan.
    *  - The depth-first search keeps an explicit stack of decided edges, so
    *    chains of any length run on the caller's thread.
    *  - The incumbent is lazy: an improving node records only the height of
    *    the selection stack, and the selection is copied when a backtrack is
    *    about to pop below that height, or when the search ends. An
    *    improving dive therefore costs O(depth), not O(depth²).
    */
  private final class Component(
      ix: Indexed,
      tuples: Buckets,
      matches: Buckets,
      c: Int,
      local: Array[Int],
      phi: Phi,
      p: Params,
  ) {
    // Leaves sit on a capped side; hubs are capped too only under ≡.
    private val hubsCapped = phi == Phi.Equiv
    private val tFrom = tuples.start(c)
    private val mFrom = matches.start(c)
    val nT: Int = tuples.start(c + 1) - tFrom
    private val nE = matches.start(c + 1) - mFrom
    /** The position of the component's tuple `j` and of its match `e`. */
    def tupleAt(j: Int): Int = tuples.entry(tFrom + j)
    def matchAt(e: Int): Int = matches.entry(mFrom + e)
    private val isHub = new Array[Boolean](nT)
    val impact = new Array[Double](nT)
    private val uCost = new Array[Double](nT)
    private val b = p.costKeep

    val eLeaf = new Array[Int](nE)
    val eHub = new Array[Int](nE)
    private val eGain = new Array[Double](nE)
    // f = objective value if every undecided edge were rejected.
    private var f = fill()
    // Each tuple's edges in ascending index order: edgesAt(edgeStart(t) until edgeStart(t + 1)).
    private val (edgeStart, edgesAt) = edgesByTuple()

    /** Fills the tuple and edge arrays and returns the initial f: the
      * matches' log(1−p) summed, plus the tuples' unmatched costs summed.
      * The loops sit in methods, not in the constructor, whose loops the
      * JVM leaves interpreted.
      */
    private def fill(): Double = {
      val hubSide = phi.hubSide
      var unmatched = 0.0
      var j = 0
      while (j < nT) {
        val i = tupleAt(j)
        val t = ix.tuples(i)
        local(i) = j
        isHub(j) = t.side == hubSide; impact(j) = t.impact; uCost(j) = p.unmatchedCost(t.impact)
        unmatched += uCost(j)
        j += 1
      }
      var rejectAll = 0.0
      var e = 0
      while (e < nE) {
        val m = matchAt(e)
        val l = local(ix.left(m)); val r = local(ix.right(m))
        if (hubSide == 1) { eHub(e) = l; eLeaf(e) = r } else { eHub(e) = r; eLeaf(e) = l }
        val pm = ix.p(m)
        eGain(e) = math.log(pm) - math.log(1 - pm)
        rejectAll += math.log(1 - pm)
        e += 1
      }
      rejectAll + unmatched
    }

    /** Edge e's ends are entries 2e (its leaf) and 2e + 1 (its hub). */
    private def edgesByTuple(): (Array[Int], Array[Int]) = {
      val end = new Array[Int](2 * nE)
      var e = 0
      while (e < nE) { end(2 * e) = eLeaf(e); end(2 * e + 1) = eHub(e); e += 1 }
      val byTuple = Buckets(nT, end)
      (byTuple.start, byTuple.entry.map(_ >> 1))
    }

    /** Edges by descending branch score, ties by ascending index. Scores
      * compare with `>` and `==` (so −0.0 ties 0.0): each edge gets the
      * rank of its score among the distinct scores, and a counting sort by
      * descending rank keeps ascending index within a rank.
      */
    private val order: Array[Int] = branchOrder()

    private def branchOrder(): Array[Int] = {
      // + 0.0 turns −0.0 into 0.0, so equal scores share one rank.
      val score = Array.tabulate(nE)(e => eGain(e) + (b - uCost(eLeaf(e))) + 0.0)
      val sorted = score.clone()
      java.util.Arrays.sort(sorted)
      var nDistinct = 0
      for (i <- 0 until nE)
        if (nDistinct == 0 || sorted(i) != sorted(nDistinct - 1)) { sorted(nDistinct) = sorted(i); nDistinct += 1 }
      val rank = score.map(x => nDistinct - 1 - java.util.Arrays.binarySearch(sorted, 0, nDistinct, x))
      Buckets(nDistinct, rank).entry
    }

    // Search state.
    private val eState = new Array[Byte](nE) // 0 undecided, 1 selected, 2 rejected
    private val selectedNow = new Array[Int](nT) // currently selected edges (stack)
    private var nSelected = 0
    private val leafSel = Array.fill(nT)(-1) // selected edge of a leaf, -1 = none
    private val hubCount = new Array[Int](nT)
    private val hubLeafSum = new Array[Double](nT)
    // Edges force-rejected by the selects on the current path (stack).
    private val forced = new Array[Int](nE)
    private var nForced = 0

    // The incumbent: while `incumbentLazy`, the bottom `incumbentHeight`
    // entries of `selectedNow`; after that, a copy of them.
    private var incumbent = Array.emptyIntArray
    private var incumbentHeight = 0
    private var incumbentLazy = true

    private def keepIncumbent(): Unit =
      if (incumbentLazy) {
        incumbent = java.util.Arrays.copyOf(selectedNow, incumbentHeight)
        incumbentLazy = false
      }

    // Bound cache: leaf-side tuples in index order, each one's optimistic
    // lift (0 once selected), and the leaves whose lift is stale.
    private val leaves: Array[Int] = (0 until nT).filter(!isHub(_)).toArray
    private val leafPos: Array[Int] = {
      val a = Array.fill(nT)(-1)
      for (i <- leaves.indices) a(leaves(i)) = i
      a
    }
    private val leafLift = new Array[Double](leaves.length)
    private val dirty = Array.fill(leaves.length)(true)
    private val dirtyStack = Array.range(0, leaves.length)
    private var nDirty = leaves.length

    private def markDirty(l: Int): Unit = {
      val i = leafPos(l)
      if (!dirty(i)) { dirty(i) = true; dirtyStack(nDirty) = i; nDirty += 1 }
    }

    private def markHubLeavesDirty(h: Int): Unit = {
      var i = edgeStart(h)
      while (i < edgeStart(h + 1)) { markDirty(eLeaf(edgesAt(i))); i += 1 }
    }

    private def hubTerm(h: Int): Double = p.starCost(hubCount(h), hubLeafSum(h), impact(h))

    private val allNonNeg = impact.forall(_ >= 0.0)

    /** Force-rejects tuple t's undecided edges. */
    private def forceReject(t: Int): Unit = {
      var i = edgeStart(t)
      while (i < edgeStart(t + 1)) {
        val o = edgesAt(i)
        if (eState(o) == 0) { eState(o) = 2; forced(nForced) = o; nForced += 1 }
        i += 1
      }
    }

    /** Selects edge e and force-rejects the edges its degree caps exclude. */
    private def select(e: Int): Unit = {
      val l = eLeaf(e); val h = eHub(e)
      f += eGain(e)
      f -= uCost(l) // leaf joins a star; its b is inside hubTerm's count
      f -= hubTerm(h)
      eState(e) = 1
      selectedNow(nSelected) = e; nSelected += 1
      leafSel(l) = e
      hubCount(h) += 1
      hubLeafSum(h) += impact(l)
      f += hubTerm(h)
      forceReject(l)
      if (hubsCapped) forceReject(h)
      markHubLeavesDirty(h) // l is among them
    }

    /** Reverts `select(e)`: un-rejects the edges forced since stack height
      * `forcedFrom` and restores f to `fBefore`. A lazy incumbent that
      * holds e is copied first.
      */
    private def undoSelect(e: Int, forcedFrom: Int, fBefore: Double): Unit = {
      val l = eLeaf(e); val h = eHub(e)
      while (nForced > forcedFrom) { nForced -= 1; eState(forced(nForced)) = 0 }
      eState(e) = 0
      if (nSelected == incumbentHeight) keepIncumbent()
      nSelected -= 1
      leafSel(l) = -1
      hubCount(h) -= 1
      hubLeafSum(h) -= impact(l)
      f = fBefore
      markHubLeavesDirty(h) // l is among them
    }

    private def setRejected(e: Int, rejected: Boolean): Unit = {
      eState(e) = if (rejected) 2 else 0
      markDirty(eLeaf(e))
    }

    /** A leaf's optimistic lift: 0 once it is selected, else its best
      * undecided edge's gain plus the largest tuple-cost lifts it could
      * unlock (never below 0).
      */
    private def leafLiftOf(l: Int): Double = {
      var bestE = 0.0
      if (leafSel(l) < 0) {
        var i = edgeStart(l)
        while (i < edgeStart(l + 1)) {
          val e = edgesAt(i)
          if (eState(e) == 0) {
            val h = eHub(e)
            if (!hubsCapped || hubCount(h) == 0) {
              // First leaf joining a hub: Δf = gain + (b−u(l)) + (b−u(h)) − pen'
              // where the new penalty pen' is exactly known under ≡ (the
              // star is that single edge) and provably unavoidable when
              // impacts are non-negative and the leaf already overshoots
              // the hub. Joining an existing star: Δf ≤ gain + (b−u(l)) +
              // the star's current penalty (at best it becomes balanced).
              // Anything looser creates phantom gains that defeat pruning.
              val hubLift =
                if (hubCount(h) == 0) {
                  val unavoidablePen =
                    if (hubsCapped) p.changePenalty(impact(l), impact(h))
                    else if (allNonNeg && impact(l) > impact(h) + 1e-9) b - p.costChange
                    else 0.0
                  (b - uCost(h)) - unavoidablePen
                } else p.changePenalty(hubLeafSum(h), impact(h))
              val g = eGain(e) + (b - uCost(l)) + hubLift
              if (g > bestE) bestE = g
            }
          }
          i += 1
        }
      }
      bestE
    }

    /** Optimistic objective reachable from the current state: f plus every
      * leaf's lift. Only dirty lifts are recomputed.
      */
    private def bound(): Double = {
      while (nDirty > 0) {
        nDirty -= 1
        val i = dirtyStack(nDirty)
        dirty(i) = false
        leafLift(i) = leafLiftOf(leaves(i))
      }
      var extra = 0.0
      var i = 0
      while (i < leafLift.length) { extra += leafLift(i); i += 1 }
      f + extra
    }

    /** Position in `order` of the first selectable undecided edge at or
      * after `from`, or -1.
      */
    private def pickBranch(from: Int): Int = {
      var k = from
      while (k < nE) {
        val e = order(k)
        if (eState(e) == 0 && leafSel(eLeaf(e)) < 0 &&
            (!hubsCapped || hubCount(eHub(e)) == 0)) return k
        k += 1
      }
      -1
    }

    def solve(nodeCap: Long, deadline: Long): CompResult = {
      var bestF = Double.NegativeInfinity
      var nodes = 0L
      var capped = false

      /** Enters a node; returns the `order` position of its branch edge, or
        * -1 when the node is pruned, exhausted or over budget.
        */
      def visit(from: Int): Int = {
        nodes += 1
        // Record the incumbent before budget checks so a capped component
        // still returns its best completion (never -inf).
        if (f > bestF + 1e-12) { bestF = f; incumbentHeight = nSelected; incumbentLazy = true }
        if (nodes > nodeCap || (nodes % 256 == 0 && System.nanoTime() > deadline)) {
          capped = true
          -1
        } else if (bound() <= bestF + 1e-12) -1
        else pickBranch(from)
      }

      // One frame per branched edge on the current path: its position in
      // `order`, whether the select child is done (now in the reject
      // child), and what undoing the select needs. Positions strictly
      // increase along a path, so the depth never exceeds |E|.
      val framePos = new Array[Int](nE)
      val frameRejecting = new Array[Boolean](nE)
      val frameForced = new Array[Int](nE)
      val frameF = new Array[Double](nE)
      var depth = 0
      var k = visit(0)
      // A capped search stops where it is: the component is not reused.
      while (!capped && (k >= 0 || depth > 0)) {
        if (k >= 0) {
          // Descend into the child that selects the branch edge.
          framePos(depth) = k; frameRejecting(depth) = false
          frameForced(depth) = nForced; frameF(depth) = f
          depth += 1
          select(order(k))
          k = visit(k + 1)
        } else {
          val d = depth - 1
          val e = order(framePos(d))
          if (!frameRejecting(d)) {
            // Select child done: descend into the child that rejects e.
            undoSelect(e, frameForced(d), frameF(d))
            setRejected(e, rejected = true)
            frameRejecting(d) = true
            k = visit(framePos(d) + 1)
          } else {
            setRejected(e, rejected = false)
            depth -= 1
          }
        }
      }
      keepIncumbent()
      CompResult(bestF, incumbent, proved = !capped, nodesUsed = nodes)
    }
  }
}
