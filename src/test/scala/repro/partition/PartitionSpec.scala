package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._
import repro.core.{ExplainSolver, PinnedInstances, Scoring}

class PartitionSpec extends AnyFunSuite {

  private val params = Params(0.9, 0.9)

  private def chainInstance(nPairs: Int, crossP: Double = 0.3): Instance = {
    // Pair i: (li, ri) with p=0.95, plus a weak cross edge li → r(i+1).
    val t1 = (0 until nPairs).map(i => CTuple(i, 1, Seq(s"l$i"), 1)).toVector
    val t2 = (0 until nPairs).map(i => CTuple(1000 + i, 2, Seq(s"r$i"), 1)).toVector
    val strong = (0 until nPairs).map(i => TupleMatch(i, 1000 + i, 0.95))
    val weak = (0 until nPairs - 1).map(i => TupleMatch(i, 1000 + i + 1, crossP))
    Instance(t1, t2, (strong ++ weak).toVector, Phi.Equiv, params)
  }

  test("pre-partition merges high-probability pairs") {
    val inst = chainInstance(10)
    val g = PrePartition.run(inst, PrePartition.Config())
    // Each strong pair merges into one coarse node of size 2.
    assert(g.nodes.size == 10)
    assert(g.nodes.forall(_.size == 2))
    // Only the 9 weak cross edges remain, at weight p/R (p ≤ θ_l is false
    // for 0.3, so weight = p).
    assert(g.edges.size == 9)
    g.edges.values.foreach(w => assert(math.abs(w - 0.3) < 1e-12))
  }

  test("pre-partition weight scheme rewards/penalizes per the paper") {
    val cfg = PrePartition.Config(thetaL = 0.1, thetaH = 0.9, r = 100)
    assert(cfg.weight(0.95) == 95.0)
    assert(cfg.weight(0.05) == 0.05 / 100)
    assert(cfg.weight(0.5) == 0.5)
  }

  test("pre-partition merges transitively") {
    val t1 = Vector(CTuple(0, 1, Seq("a"), 1), CTuple(1, 1, Seq("b"), 1))
    val t2 = Vector(CTuple(10, 2, Seq("x"), 2))
    val ms = Vector(TupleMatch(0, 10, 0.95), TupleMatch(1, 10, 0.92))
    val g = PrePartition.run(Instance(t1, t2, ms, Phi.LessGeneral, params), PrePartition.Config())
    assert(g.nodes.size == 1 && g.nodes.head.size == 3)
    assert(g.edges.isEmpty)
  }

  test("partitioner respects L_max and assigns every node") {
    val inst = chainInstance(50)
    val g = PrePartition.run(inst, PrePartition.Config())
    val assign = Partitioner.partition(g, k = 10, lMax = 10)
    assert(assign.forall(_ >= 0))
    val loads = assign.zipWithIndex.groupBy(_._1).view
      .mapValues(_.map { case (_, node) => g.nodes(node).size }.sum)
    loads.values.foreach(l => assert(l <= 10))
  }

  test("oversized coarse nodes become their own partition") {
    val t1 = (0 until 6).map(i => CTuple(i, 1, Seq(s"l$i"), 1)).toVector
    val t2 = Vector(CTuple(100, 2, Seq("hub"), 6))
    val ms = (0 until 6).map(i => TupleMatch(i, 100, 0.95)).toVector
    val g = PrePartition.run(Instance(t1, t2, ms, Phi.LessGeneral, params), PrePartition.Config())
    assert(g.nodes.size == 1 && g.nodes.head.size == 7)
    val assign = Partitioner.partition(g, k = 3, lMax = 4)
    assert(assign(0) == 0)
  }

  test("edge cut prefers cutting weak edges") {
    val inst = chainInstance(20, crossP = 0.2)
    val g = PrePartition.run(inst, PrePartition.Config())
    val assign = Partitioner.partition(g, k = 4, lMax = 10)
    val cut = Partitioner.edgeCut(g, assign)
    // Strong pairs are inside coarse nodes; only weak edges can be cut, and
    // a chain of 20 coarse nodes into parts of ≤5 cuts ≥ 3 of them.
    assert(cut <= 0.2 * 19 + 1e-9)
  }

  test("smart-partition split covers all tuples exactly once") {
    val inst = chainInstance(30)
    val parts = SmartPartition.split(inst, SmartPartition.Config(batchSize = 10))
    val all = parts.subInstances.flatMap(s => s.t1 ++ s.t2).map(_.id)
    assert(all.size == all.distinct.size)
    assert(all.toSet == inst.tupleById.keySet)
    val nMatches = parts.subInstances.map(_.matches.size).sum + parts.cutMatches.size
    assert(nMatches == inst.matches.size)
  }

  test("partitioned solve equals NOOPT when cuts only lose weak edges") {
    val inst = chainInstance(16, crossP = 0.2)
    val noopt = ExplainSolver.solve(inst)
    val parted = SmartPartition.solve(inst, SmartPartition.Config(batchSize = 8), ExplainSolver.Config())
    // Weak cross edges are never selected by the optimum, so cutting them
    // changes nothing: identical evidence and identical objective.
    assert(parted.explanations.evidence == noopt.explanations.evidence)
    assert(math.abs(parted.logProb - noopt.logProb) < 1e-9)
  }

  test("partitioned solution remains complete") {
    val inst = chainInstance(24, crossP = 0.4)
    val parted = SmartPartition.solve(inst, SmartPartition.Config(batchSize = 6), ExplainSolver.Config())
    assert(Scoring.completenessViolation(inst, parted.explanations).isEmpty)
  }

  test("pinned BATCH-100 pre-partition and split on seeded random instances") {
    // Digests recorded before PrePartition used Scoring.UnionFind: 150x150
    // instances (PinnedInstances.instance). Coarse-node order follows the
    // union-find roots and the partitioner's tie breaks follow that order.
    val expected = Seq(
      // (case, PrePartition.run digest, SmartPartition.split digest)
      (0, "5f6e587a5acbad0f", "081521c7a611afde"),
      (1, "12505260646553f1", "5bb764e4425ad67e"),
      (2, "d58d9d11961367b1", "5843a5f34702de7f"),
      (3, "2ff73ff097fcbc3c", "e3195cdc65ffcb88"),
      (4, "437430d3a1786b11", "651d54dcb8f2cc6d"),
      (5, "5fb2115f5d9a1d10", "0e3e1080bfdf71c1"),
      (6, "8a3b8db6d8ccf50f", "85bfdc9b21195f03"),
      (7, "a6d377ac1e52687f", "73b82278b6f6f9df"),
      (8, "ffe44b8966a8b73d", "28fc08b73c56a4ca"),
      (9, "949275a0d444c667", "a2414f7a50ed5753"),
      (10, "7facb5b3be501c30", "58ff3a0070f5731e"),
      (11, "e27343fd5120d2d3", "b61b8dbb2c548c15"),
      (12, "186ea66380ad8855", "3c71f1470b902be3"),
      (13, "e8df2df6a3c11401", "38dc6b2f5142b734"),
      (14, "4edb3a93ffe3ea12", "1725f57068e3b6f9"),
      (15, "1eae094fef4f0500", "7ed87b4db6d8ac1b"),
      (16, "d816f2e9d45f15fc", "e3ecbd04d711e923"),
      (17, "cb961c299c7cd0e3", "71c4f84d2355865f"),
      (18, "10f1b103cdabc4b9", "85c23c25da4fd4c1"),
      (19, "dc2d000a977a831d", "693111fb74394068"),
    )
    assert(expected.map(_._1) == PinnedInstances.Cases)
    val cfg = SmartPartition.Config(batchSize = 100)
    for ((i, coarse, split) <- expected) {
      val inst = PinnedInstances.instance(i, 150, 0.02)
      assert(PinnedInstances.coarse(PrePartition.run(inst, cfg.pre)) == coarse, s"case $i: pre-partition")
      assert(PinnedInstances.split(SmartPartition.split(inst, cfg)) == split, s"case $i: split")
    }
  }
}
