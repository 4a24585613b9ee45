package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._

class ExplainSolverSpec extends AnyFunSuite {

  private val params = Params(0.9, 0.9)

  test("fig3 (Q1 vs Q2): full evidence, CSE value change, nothing deleted") {
    val inst = new ScoringSpec().fig3
    val sol = ExplainSolver.solve(inst)
    assert(sol.proved)
    assert(sol.explanations.evidence == inst.matches.map(m => (m.left, m.right)).toSet)
    assert(sol.explanations.delta.isEmpty)
    assert(sol.explanations.values.keySet == Set(11L))
    assert(sol.explanations.values(11L).newImpact == 2.0)
    // Solver score must equal the scoring function on the decoded set.
    assert(math.abs(sol.logProb - Scoring.logProb(inst, sol.explanations)) < 1e-9)
  }

  /** Q2 vs Q3 of the running example: program ⊑ college, CSE ambiguous
    * between Computer Science and Engineering (Section 2.3's argument).
    */
  test("running example Q2 vs Q3 resolves CSE to Computer Science") {
    val t1 = Vector(
      CTuple(0, 1, Seq("accounting"), 1), CTuple(1, 1, Seq("cse"), 1),
      CTuple(2, 1, Seq("ece"), 1), CTuple(3, 1, Seq("ee"), 1),
      CTuple(4, 1, Seq("management"), 1), CTuple(5, 1, Seq("design"), 1))
    val t2 = Vector(
      CTuple(10, 2, Seq("business"), 2),
      CTuple(11, 2, Seq("engineering"), 2),
      CTuple(12, 2, Seq("computer science"), 1))
    val ms = Vector(
      TupleMatch(0, 10, 0.8), TupleMatch(4, 10, 0.8),
      TupleMatch(2, 11, 0.8), TupleMatch(3, 11, 0.8),
      TupleMatch(1, 12, 0.6), TupleMatch(1, 11, 0.5))
    val inst = Instance(t1, t2, ms, Phi.LessGeneral, params)
    val sol = ExplainSolver.solve(inst)
    assert(sol.proved)
    assert(sol.explanations.evidence ==
      Set((0L, 10L), (4L, 10L), (2L, 11L), (3L, 11L), (1L, 12L)))
    assert(sol.explanations.delta == Set(5L), "design is the only mismatched tuple")
    assert(sol.explanations.values.isEmpty, "all stars balance")
  }

  test("record-linkage counterexample from Section 5.2 (A/B vs A'/B')") {
    // Initial mapping {(A,A',0.8), (B,B',0.8), (A,B',0.9), (B,A',0.5)}:
    // linkage picks (A,B'); explain3D picks (A,A'), (B,B') to avoid
    // unmatched tuples.
    val t1 = Vector(CTuple(0, 1, Seq("A"), 1), CTuple(1, 1, Seq("B"), 1))
    val t2 = Vector(CTuple(10, 2, Seq("A'"), 1), CTuple(11, 2, Seq("B'"), 1))
    val ms = Vector(
      TupleMatch(0, 10, 0.8), TupleMatch(1, 11, 0.8),
      TupleMatch(0, 11, 0.9), TupleMatch(1, 10, 0.5))
    val inst = Instance(t1, t2, ms, Phi.Equiv, params)
    val sol = ExplainSolver.solve(inst)
    assert(sol.explanations.evidence == Set((0L, 10L), (1L, 11L)))
    assert(sol.explanations.delta.isEmpty)
  }

  test("unmatched tuples are deleted (not zeroed) under default priors") {
    val inst = Instance(
      Vector(CTuple(0, 1, Seq("only"), 3)), Vector.empty, Vector.empty, Phi.Equiv, params)
    val sol = ExplainSolver.solve(inst)
    assert(sol.explanations.delta == Set(0L))
    assert(math.abs(sol.logProb - params.costDelete) < 1e-12)
  }

  test("zero-impact unmatched tuple is kept for free") {
    val inst = Instance(
      Vector(CTuple(0, 1, Seq("zero"), 0)), Vector.empty, Vector.empty, Phi.Equiv, params)
    val sol = ExplainSolver.solve(inst)
    assert(sol.explanations.delta.isEmpty && sol.explanations.values.isEmpty)
    assert(math.abs(sol.logProb - params.costKeep) < 1e-12)
  }

  test("low-probability match is rejected when mismatch cost is lower") {
    // p = 0.05: selecting costs log(.05) − log(.95) ≈ −2.94 relative, versus
    // deleting both tuples: 2·costDelete − 2·costKeep ≈ −4.18... here
    // selecting with a value fix may still win; verify against brute force.
    val t1 = Vector(CTuple(0, 1, Seq("x"), 5))
    val t2 = Vector(CTuple(10, 2, Seq("y"), 1))
    val inst = Instance(t1, t2, Vector(TupleMatch(0, 10, 0.05)), Phi.Equiv, params)
    val sol = ExplainSolver.solve(inst)
    val (_, bestScore) = SemanticBruteForce.solve(inst)
    assert(math.abs(sol.logProb - bestScore) < 1e-9)
  }

  test("matches brute force on the fig3 instance") {
    val inst = new ScoringSpec().fig3
    val sol = ExplainSolver.solve(inst)
    val (_, bestScore) = SemanticBruteForce.solve(inst)
    assert(math.abs(sol.logProb - bestScore) < 1e-9)
  }

  test("solver solution is always complete") {
    val inst = new ScoringSpec().fig3
    val sol = ExplainSolver.solve(inst)
    assert(Scoring.completenessViolation(inst, sol.explanations).isEmpty)
  }

  test("node cap returns an incumbent with proved = false") {
    val t1 = (0 until 8).map(i => CTuple(i, 1, Seq(s"a$i"), 1)).toVector
    val t2 = (0 until 8).map(i => CTuple(100 + i, 2, Seq(s"b$i"), 1)).toVector
    val ms = (for (i <- 0 until 8; j <- 0 until 8) yield TupleMatch(i, 100 + j, 0.6)).toVector
    val inst = Instance(t1, t2, ms, Phi.Equiv, params)
    val sol = ExplainSolver.solve(inst, ExplainSolver.Config(nodeCap = 5, timeLimitMs = 60000))
    assert(!sol.proved)
    assert(Scoring.completenessViolation(inst, sol.explanations).isEmpty)
  }

  test("duplicate matches are rejected") {
    val t1 = Vector(CTuple(0, 1, Seq("x"), 1))
    val t2 = Vector(CTuple(10, 2, Seq("x"), 1))
    val ms = Vector(TupleMatch(0, 10, 0.9), TupleMatch(0, 10, 0.8))
    assertThrows[IllegalArgumentException](
      ExplainSolver.solve(Instance(t1, t2, ms, Phi.Equiv, params)))
  }

  test("⊒ orientation: hubs on the left side") {
    // One left tuple (aggregate) maps to two right tuples.
    val t1 = Vector(CTuple(0, 1, Seq("college"), 2))
    val t2 = Vector(CTuple(10, 2, Seq("prog a"), 1), CTuple(11, 2, Seq("prog b"), 1))
    val ms = Vector(TupleMatch(0, 10, 0.9), TupleMatch(0, 11, 0.9))
    val inst = Instance(t1, t2, ms, Phi.MoreGeneral, params)
    val sol = ExplainSolver.solve(inst)
    assert(sol.explanations.evidence == Set((0L, 10L), (0L, 11L)))
    assert(sol.explanations.delta.isEmpty && sol.explanations.values.isEmpty)
  }

  test("randomized instances match the semantic brute force") {
    val rnd = new scala.util.Random(1234)
    val probs = Array(0.2, 0.4, 0.6, 0.9, 0.95)
    for (trial <- 0 until 60) {
      val n1 = 1 + rnd.nextInt(3)
      val n2 = 1 + rnd.nextInt(3)
      val t1 = (0 until n1).map(i => CTuple(i, 1, Seq(s"l$i"), rnd.nextInt(4))).toVector
      val t2 = (0 until n2).map(i => CTuple(100 + i, 2, Seq(s"r$i"), rnd.nextInt(4))).toVector
      val ms = (for {
        i <- 0 until n1; j <- 0 until n2 if rnd.nextDouble() < 0.7
      } yield TupleMatch(i, 100 + j, probs(rnd.nextInt(probs.length)))).toVector
      val phi = Seq(Phi.Equiv, Phi.LessGeneral, Phi.MoreGeneral)(rnd.nextInt(3))
      val inst = Instance(t1, t2, ms, phi, params)
      val sol = ExplainSolver.solve(inst)
      val (_, bestScore) = SemanticBruteForce.solve(inst)
      assert(sol.proved, s"trial $trial should be proved")
      assert(math.abs(sol.logProb - bestScore) < 1e-9,
        s"trial $trial: solver ${sol.logProb} vs brute $bestScore ($inst)")
      assert(Scoring.completenessViolation(inst, sol.explanations).isEmpty, s"trial $trial incomplete")
      assert(math.abs(Scoring.logProb(inst, sol.explanations) - sol.logProb) < 1e-9,
        s"trial $trial: reported score differs from decoded score")
    }
  }

  /** 30×30 tuples; each (left, right) pair is a candidate with probability
    * `density`, and every impact is drawn from `impacts`.
    */
  private def pinnedInstance(
      seed: Long, phi: Phi, impacts: Seq[Double], params: Params, density: Double): Instance = {
    val rnd = new scala.util.Random(seed)
    val probs = Array(0.3, 0.55, 0.7, 0.85, 0.95)
    val t1 = (0 until 30).map(i => CTuple(i, 1, Seq(s"l$i"), impacts(rnd.nextInt(impacts.size)))).toVector
    val t2 = (0 until 30).map(j => CTuple(1000 + j, 2, Seq(s"r$j"), impacts(rnd.nextInt(impacts.size)))).toVector
    val ms = (for (i <- 0 until 30; j <- 0 until 30 if rnd.nextDouble() < density)
      yield TupleMatch(i, 1000 + j, probs(rnd.nextInt(probs.length)))).toVector
    Instance(t1, t2, ms, phi, params)
  }

  test("pinned search: objective, node count and provedness on seeded 30x30 instances") {
    // Expected values were recorded from the full-rescan search (a bound
    // and a branch pick that scanned every leaf and edge at every node).
    // Equal node counts mean the search explores the same tree. The
    // explanation digests were recorded from the search that copied its
    // incumbent at every improving node.
    val positive = (1 to 4).map(_.toDouble)
    val withZero = (0 to 4).map(_.toDouble)
    val withNeg = (-3 to 5).map(_.toDouble)
    val default = ExplainSolver.Config().nodeCap
    val cases = Seq(
      // (seed, φ, impacts, params, density, nodeCap, logProb, nodes, proved, explanations digest)
      (2L, Phi.Equiv, positive, params, 0.05, default, -112.9791674815, 845L, true, "3de8198010822771"),
      (2L, Phi.Equiv, withZero, params, 0.05, default, -107.3648300672, 1961L, true, "17d667c3581c47e8"),
      (1L, Phi.Equiv, withNeg, params, 0.05, default, -126.7751301505, 11773L, true, "7d8cb14d46688598"),
      (2L, Phi.LessGeneral, positive, params, 0.05, default, -106.9146370129, 100585L, true, "da7bca3b1d4a1401"),
      (2L, Phi.LessGeneral, withZero, params, 0.05, default, -102.1031783892, 130143L, true, "24849712260c2890"),
      (1L, Phi.MoreGeneral, positive, params, 0.05, default, -100.3978811083, 33719L, true, "a71bc44d44dd5762"),
      (2L, Phi.MoreGeneral, withZero, params, 0.05, default, -102.8042749597, 111379L, true, "1a475367e8313fef"),
      (1L, Phi.MoreGeneral, withNeg, params, 0.05, 20000L, -114.8625624978, 20013L, false, "c913a81ff295e0bf"),
      (2L, Phi.LessGeneral, withNeg, params, 0.05, 5000L, -117.8595505579, 5011L, false, "1b848641f080bb55"),
      (3L, Phi.Equiv, withNeg, Params(0.6, 0.7), 0.05, default, -114.5991909913, 103L, true, "5935ef3682ba2b0e"),
      (3L, Phi.LessGeneral, withZero, Params(0.7, 0.6), 0.05, default, -105.1262052202, 5157L, true, "206db7d2a584b420"),
      (4L, Phi.MoreGeneral, withNeg, Params(0.55, 0.95), 0.05, default, -93.4049077834, 1142L, true, "82a65a16195993a3"),
      (5L, Phi.Equiv, withZero, Params(0.95, 0.55), 0.08, default, -98.1407997479, 91L, true, "61d9f0edb091d148"),
      (1L, Phi.Equiv, withZero, params, 0.08, 3000L, -137.3203357600, 3007L, false, "5f991f1620661d25"),
    )
    for (((seed, phi, impacts, prm, density, cap, logProb, nodes, proved, expl), i) <- cases.zipWithIndex) {
      val inst = pinnedInstance(seed, phi, impacts, prm, density)
      val sol = ExplainSolver.solve(inst, ExplainSolver.Config(nodeCap = cap, timeLimitMs = 600000L))
      assert(math.abs(sol.logProb - logProb) < 1e-9, s"case $i: logProb ${sol.logProb}")
      assert(sol.nodes == nodes, s"case $i: nodes")
      assert(sol.proved == proved, s"case $i: proved")
      assert(PinnedInstances.explanations(sol.explanations) == expl, s"case $i: explanations")
      assert(Scoring.completenessViolation(inst, sol.explanations).isEmpty, s"case $i incomplete")
      assert(math.abs(Scoring.logProb(inst, sol.explanations) - sol.logProb) < 1e-9, s"case $i: score")
    }
  }

  test("pinned NOOPT solves on seeded random instances") {
    // Recorded from the search that copied its incumbent at every improving
    // node. Every case stops at the node cap, so each checks the incumbent
    // a capped search returns.
    val expected = Seq(
      // (n, density, case, nodes, proved, explanations digest, logProb)
      (150, 0.02, 0, 20001L, false, "28bd89db6c81620f", -836.6112863921744),
      (150, 0.02, 1, 20004L, false, "935173de203e962b", -734.5856458016084),
      (150, 0.02, 2, 20001L, false, "013b2b4ebe21a6fd", -647.9646296980698),
      (150, 0.02, 3, 20004L, false, "8214fc8230cff630", -593.0566499633323),
      (150, 0.02, 4, 20014L, false, "ab2dd42db5a4d746", -642.4192769687736),
      (150, 0.02, 5, 20005L, false, "f98f436f4969a52e", -786.7907109704252),
      (150, 0.02, 6, 20005L, false, "1783ec83eead8b89", -731.9137556128649),
      (150, 0.02, 7, 20007L, false, "0288f962b41de6bb", -544.4467177677494),
      (150, 0.02, 8, 20004L, false, "4d7579a00e23b955", -740.8584867903816),
      (150, 0.02, 9, 20002L, false, "a5bc003bea146b16", -818.3578890366496),
      (150, 0.02, 10, 20008L, false, "1ce17973e814c59e", -645.881439766068),
      (150, 0.02, 11, 20004L, false, "d1abab966ccf17fb", -579.0862443514886),
      (150, 0.02, 12, 20010L, false, "cb95dbaaad1bb8e8", -730.7921882293905),
      (150, 0.02, 13, 20007L, false, "c5b5e08e194c3bda", -675.3838453852889),
      (150, 0.02, 14, 20004L, false, "bec1692a20629c66", -627.9572541030319),
      (150, 0.02, 15, 20001L, false, "828defd46d4704bf", -622.3442816196061),
      (150, 0.02, 16, 20013L, false, "0e00940c317d0a42", -709.5922848285002),
      (150, 0.02, 17, 20001L, false, "18d88149c166a676", -767.8622305296311),
      (150, 0.02, 18, 20001L, false, "c816948bad57cc7d", -717.3950942145503),
      (150, 0.02, 19, 20002L, false, "e242cea273692b4e", -581.0363401716434),
      (60, 0.06, 0, 20001L, false, "fff74f72b08eaef2", -355.29811119852366),
      (60, 0.06, 1, 20001L, false, "4a6df4be21656023", -308.19379667464733),
      (60, 0.06, 2, 20001L, false, "b78970286738025a", -295.21831843970347),
      (60, 0.06, 3, 20001L, false, "b6c13f688a6489b6", -275.3744349435533),
      (60, 0.06, 4, 20001L, false, "73416c2010baf38e", -302.3702872069548),
      (60, 0.06, 5, 20004L, false, "c14fe1c393ddce81", -327.72626736176267),
      (60, 0.06, 6, 20001L, false, "b6328e7d415e7cad", -340.63895520454264),
      (60, 0.06, 7, 20001L, false, "f671370b892912dd", -283.11381315336615),
      (60, 0.06, 8, 20001L, false, "494cf209a9e641d8", -338.3462151322822),
      (60, 0.06, 9, 20001L, false, "e2a57b5d39b311ee", -366.40795535473075),
      (60, 0.06, 10, 20001L, false, "3e60ce5d1044bcf9", -313.26054877494704),
      (60, 0.06, 11, 20001L, false, "7be91d43a5465e76", -282.05842881777005),
      (60, 0.06, 12, 20001L, false, "0b0485b6b5a28116", -343.3024573791638),
      (60, 0.06, 13, 20001L, false, "54b645da82cd8f01", -345.3881847326597),
      (60, 0.06, 14, 20001L, false, "ea171401e9651809", -303.7761416739462),
      (60, 0.06, 15, 20001L, false, "1b259665686b0575", -316.04095871035764),
      (60, 0.06, 16, 20001L, false, "2f2f8dd7a5dbf030", -317.3563018953169),
      (60, 0.06, 17, 20001L, false, "fdb4e3747eda863d", -346.0325670057014),
      (60, 0.06, 18, 20001L, false, "4c65fec497e7df44", -318.17748605352926),
      (60, 0.06, 19, 20001L, false, "6c2663cdd7c4d92c", -274.5001959893349),
    )
    assert(expected.size == 40)
    val cfg = ExplainSolver.Config(nodeCap = 20_000L, timeLimitMs = 600_000L)
    for ((n, density, i, nodes, proved, expl, logProb) <- expected) {
      val inst = PinnedInstances.instance(i, n, density)
      val s = ExplainSolver.solve(inst, cfg)
      val at = s"n=$n density=$density case $i"
      assert((s.nodes, s.proved, PinnedInstances.explanations(s.explanations)) == ((nodes, proved, expl)), at)
      assert(math.abs(s.logProb - logProb) <= 1e-9, s"$at: ${s.logProb} vs $logProb")
      assert(s.stats.cutMatches == 0 && s.stats.components >= 1, at)
      assert(s.stats.largestComponent <= inst.matches.size, at)
    }
  }
}
