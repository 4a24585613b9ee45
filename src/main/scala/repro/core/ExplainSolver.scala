package repro.core

import repro.core.Model._
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
  */
object ExplainSolver {

  /** @param nodeCap     branch-and-bound node budget *per connected
    *                     component* (the global budget is the time limit)
    * @param timeLimitMs wall-clock budget for the whole solve
    */
  final case class Config(nodeCap: Long = 5_000_000L, timeLimitMs: Long = 120_000L)

  /** Solves `inst` exactly, one connected component at a time.
    *
    * `groupOf` assigns each tuple to a group (a smart partition); by default
    * all tuples share one. A match whose ends lie in different groups is
    * cut: it never joins a component and is never evidence, and it adds
    * its unselected cost log(1−p). One deadline covers the whole solve, the
    * node cap applies per component, and the solution is proved only if
    * every component is.
    */
  def solve(inst: Instance, config: Config = Config(), groupOf: Long => Int = _ => 0): Solution = {
    require(
      !hasDuplicatePair(inst.matches),
      "duplicate (left,right) pairs in matches — stage 1 emits one match per pair")
    val deadline = System.nanoTime() + config.timeLimitMs * 1000000L
    val (kept, cut) = inst.matches.partition(m => groupOf(m.left) == groupOf(m.right))

    // Split into connected components of the uncut candidate graph; each
    // is an independent subproblem (presolve step of any MILP solver).
    val uf = new Scoring.UnionFind(inst.tupleById.keys)
    kept.foreach(m => uf.union(m.left, m.right))
    val tuplesByComp = inst.tupleById.values.toSeq.groupBy(t => uf.find(t.id))
    val matchesByComp = kept.groupBy(m => uf.find(m.left))

    var totalLogProb = cut.iterator.map(m => math.log(1 - m.p)).sum
    var proved = true
    var nodes = 0L
    val delta = Set.newBuilder[Long]
    val values = Map.newBuilder[Long, ValueChange]
    val evidence = Set.newBuilder[(Long, Long)]

    val p = inst.params
    def emitUnmatched(t: CTuple): Unit =
      if (p.deletesUnmatched(t.impact)) delta += t.id
      else if (t.impact != 0.0) values += t.id -> ValueChange(t.id, t.impact, 0.0)

    for ((root, tuples) <- tuplesByComp.toSeq.sortBy(_._1)) {
      val ms = matchesByComp.getOrElse(root, Vector.empty)
      if (ms.isEmpty) {
        // Singleton (or matchless) tuples: closed form.
        tuples.foreach { t => totalLogProb += p.unmatchedCost(t.impact); emitUnmatched(t) }
      } else {
        val comp = new Component(tuples.toVector, ms, inst.phi, p)
        val res = comp.solve(config.nodeCap, deadline)
        proved &&= res.proved
        nodes += res.nodesUsed
        totalLogProb += res.logProb
        // Decode this component's incumbent.
        val selected = res.selectedEdges
        val matchedTuples = scala.collection.mutable.Set.empty[Long]
        selected.foreach { case (l, r) => evidence += ((l, r)); matchedTuples += l; matchedTuples += r }
        // Stars: group selected edges by hub; unbalanced → change hub impact.
        selected.map { case (l, r) => inst.phi.hubAndLeaf(l, r) }.groupMap(_._1)(_._2).foreach {
          case (hub, leaves) =>
            val leafSum = leaves.iterator.map(inst.tupleById(_).impact).sum
            val hubImp = inst.tupleById(hub).impact
            if (Params.unbalanced(leafSum, hubImp))
              values += hub -> ValueChange(hub, hubImp, leafSum)
        }
        tuples.foreach(t => if (!matchedTuples.contains(t.id)) emitUnmatched(t))
      }
    }

    val e = ExplanationSet(delta.result(), values.result(), evidence.result())
    Solution(e, totalLogProb, proved, nodes)
  }

  /** (left, right) order on matches, by their primitive ends. */
  private val byEnds: Ordering[TupleMatch] = (a, b) => {
    val c = java.lang.Long.compare(a.left, b.left)
    if (c != 0) c else java.lang.Long.compare(a.right, b.right)
  }

  /** Whether two matches share (left, right): the matches sorted by their
    * ends, each compared with its neighbour. Stage 1 emits them sorted, so
    * the sort is one pass over a copy.
    */
  private def hasDuplicatePair(ms: Vector[TupleMatch]): Boolean = {
    val sorted = ms.toArray
    sorted.sortInPlace()(byEnds)
    var i = 1
    while (i < sorted.length && byEnds.compare(sorted(i - 1), sorted(i)) != 0) i += 1
    i < sorted.length
  }

  private final case class CompResult(
      logProb: Double,
      selectedEdges: Vector[(Long, Long)],
      proved: Boolean,
      nodesUsed: Long,
  )

  /** Branch-and-bound over one connected component.
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
    */
  private final class Component(
      tuples: Vector[CTuple],
      ms: Vector[TupleMatch],
      phi: Phi,
      p: Params,
  ) {
    // Leaves sit on a capped side; hubs are capped too only under ≡.
    private val hubsCapped = phi == Phi.Equiv
    private val nT = tuples.size
    private val idxOf = tuples.iterator.map(_.id).zipWithIndex.toMap
    private val isHub = tuples.map(_.side == phi.hubSide).toArray
    private val impact = tuples.map(_.impact).toArray
    private val uCost = tuples.map(t => p.unmatchedCost(t.impact)).toArray
    private val b = p.costKeep

    private val nE = ms.size
    private val eLeaf = new Array[Int](nE)
    private val eHub = new Array[Int](nE)
    private val eGain = new Array[Double](nE)
    locally {
      var i = 0
      while (i < nE) {
        val m = ms(i)
        val (hubId, leafId) = phi.hubAndLeaf(m.left, m.right)
        eLeaf(i) = idxOf(leafId); eHub(i) = idxOf(hubId)
        eGain(i) = math.log(m.p) - math.log(1 - m.p)
        i += 1
      }
    }
    private val edgesAt: Array[Array[Int]] = {
      val bufs = Array.fill(nT)(new ArrayBuffer[Int])
      for (e <- 0 until nE) { bufs(eLeaf(e)) += e; bufs(eHub(e)) += e }
      bufs.map(_.toArray)
    }

    /** Edges by descending branch score, ties by ascending index. */
    private val order: Array[Int] = {
      val score = Array.tabulate(nE)(e => eGain(e) + (b - uCost(eLeaf(e))))
      Array.range(0, nE).sortWith((x, y) => score(x) > score(y) || (score(x) == score(y) && x < y))
    }

    // Search state.
    private val eState = new Array[Byte](nE) // 0 undecided, 1 selected, 2 rejected
    private val selectedNow = new ArrayBuffer[Int] // currently selected edges (stack)
    private val leafSel = Array.fill(nT)(-1) // selected edge of a leaf, -1 = none
    private val hubCount = new Array[Int](nT)
    private val hubLeafSum = new Array[Double](nT)
    // Edges force-rejected by the selects on the current path (stack).
    private val forced = new Array[Int](nE)
    private var nForced = 0
    // f = objective value if every undecided edge were rejected.
    private var f = ms.iterator.map(m => math.log(1 - m.p)).sum +
      tuples.indices.iterator.map(uCost).sum

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
      val es = edgesAt(h)
      var i = 0
      while (i < es.length) { markDirty(eLeaf(es(i))); i += 1 }
    }

    private def hubTerm(h: Int): Double = p.starCost(hubCount(h), hubLeafSum(h), impact(h))

    private val allNonNeg = impact.forall(_ >= 0.0)

    private def forceReject(es: Array[Int]): Unit = {
      var i = 0
      while (i < es.length) {
        val o = es(i)
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
      selectedNow += e
      leafSel(l) = e
      hubCount(h) += 1
      hubLeafSum(h) += impact(l)
      f += hubTerm(h)
      forceReject(edgesAt(l))
      if (hubsCapped) forceReject(edgesAt(h))
      markHubLeavesDirty(h) // l is among them
    }

    /** Reverts `select(e)`: un-rejects the edges forced since stack height
      * `forcedFrom` and restores f to `fBefore`.
      */
    private def undoSelect(e: Int, forcedFrom: Int, fBefore: Double): Unit = {
      val l = eLeaf(e); val h = eHub(e)
      while (nForced > forcedFrom) { nForced -= 1; eState(forced(nForced)) = 0 }
      eState(e) = 0
      selectedNow.dropRightInPlace(1)
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
        val es = edgesAt(l)
        var i = 0
        while (i < es.length) {
          val e = es(i)
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
      var bestSel: Vector[(Long, Long)] = Vector.empty
      var nodes = 0L
      var capped = false

      // O(|selection|), not O(|E|): incumbents improve on every select of
      // the initial dive, so a full edge scan here dominates large solves.
      def snapshot(): Vector[(Long, Long)] =
        selectedNow.iterator.map { e => val m = ms(e); (m.left, m.right) }.toVector

      /** Enters a node; returns the `order` position of its branch edge, or
        * -1 when the node is pruned, exhausted or over budget.
        */
      def visit(from: Int): Int = {
        nodes += 1
        // Record the incumbent before budget checks so a capped component
        // still returns its best completion (never -inf).
        if (f > bestF + 1e-12) { bestF = f; bestSel = snapshot() }
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
      CompResult(bestF, bestSel, proved = !capped, nodesUsed = nodes)
    }
  }
}
