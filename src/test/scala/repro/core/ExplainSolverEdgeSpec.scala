package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._

/** Further targeted solver cases: orientation, negative impacts, empty
  * inputs, deep chains, and time-limit behaviour.
  */
class ExplainSolverEdgeSpec extends AnyFunSuite {

  private val params = Params(0.9, 0.9)

  test("empty instance solves trivially") {
    val sol = ExplainSolver.solve(Instance(Vector.empty, Vector.empty, Vector.empty, Phi.Equiv, params))
    assert(sol.logProb == 0.0 && sol.proved)
    assert(sol.explanations.delta.isEmpty && sol.explanations.evidence.isEmpty)
  }

  test("negative impacts are handled (SUM over negative values)") {
    val inst = Instance(
      Vector(CTuple(0, 1, Seq("a"), -5)),
      Vector(CTuple(10, 2, Seq("a"), -5)),
      Vector(TupleMatch(0, 10, 0.9)), Phi.Equiv, params)
    val sol = ExplainSolver.solve(inst)
    assert(sol.explanations.evidence == Set((0L, 10L)))
    assert(sol.explanations.values.isEmpty)
    val (_, best) = SemanticBruteForce.solve(inst)
    assert(math.abs(sol.logProb - best) < 1e-9)
  }

  test("many-to-one star sums leaves under ⊑ and fixes the hub when unbalanced") {
    val t1 = (0 until 4).map(i => CTuple(i, 1, Seq(s"m$i"), 1)).toVector
    val t2 = Vector(CTuple(10, 2, Seq("college"), 3))
    val ms = (0 until 4).map(i => TupleMatch(i, 10, 0.9)).toVector
    val inst = Instance(t1, t2, ms, Phi.LessGeneral, params)
    val sol = ExplainSolver.solve(inst)
    // Selecting all 4 leaves (sum 4 vs 3) with one value fix beats dropping one.
    val (_, best) = SemanticBruteForce.solve(inst)
    assert(math.abs(sol.logProb - best) < 1e-9)
    assert(Scoring.completenessViolation(inst, sol.explanations).isEmpty)
  }

  test("long chain of ambiguous matches stays exact") {
    // l_i matches r_i (p=.9) and r_{i+1} (p=.6): optimum is the diagonal.
    val n = 10
    val t1 = (0 until n).map(i => CTuple(i, 1, Seq(s"l$i"), 1)).toVector
    val t2 = (0 until n).map(i => CTuple(100 + i, 2, Seq(s"r$i"), 1)).toVector
    val ms = ((0 until n).map(i => TupleMatch(i, 100 + i, 0.9)) ++
      (0 until n - 1).map(i => TupleMatch(i, 100 + i + 1, 0.6))).toVector
    val inst = Instance(t1, t2, ms, Phi.Equiv, params)
    val sol = ExplainSolver.solve(inst)
    assert(sol.proved)
    assert(sol.explanations.evidence == (0 until n).map(i => (i.toLong, 100L + i)).toSet)
  }

  test("a 20,000-edge chain is solved and proved on a 512 KB thread stack") {
    // The search must not recurse per branched edge: this chain is decided
    // one edge per level, far deeper than a small stack can hold.
    val n = 10001
    val t1 = (0 until n).map(i => CTuple(i, 1, Seq(s"l$i"), 1)).toVector
    val t2 = (0 until n).map(i => CTuple(100000 + i, 2, Seq(s"r$i"), 1)).toVector
    val ms = ((0 until n).map(i => TupleMatch(i, 100000 + i, 0.9)) ++
      (0 until n - 1).map(i => TupleMatch(i, 100000 + i + 1, 0.6))).toVector
    assert(ms.size >= 20000)
    val inst = Instance(t1, t2, ms, Phi.Equiv, params)
    var result: Either[Throwable, Solution] = Left(new IllegalStateException("not run"))
    val runner = new Thread(null, () => {
      result = try Right(ExplainSolver.solve(inst)) catch { case t: Throwable => Left(t) }
    }, "small-stack-solve", 512L * 1024)
    runner.start()
    runner.join()
    val sol = result.fold(t => fail(s"solve failed on a 512 KB stack: $t"), identity)
    assert(sol.proved)
    assert(sol.explanations.evidence == (0 until n).map(i => (i.toLong, 100000L + i)).toSet)
  }

  test("timeLimit of zero still yields a complete incumbent") {
    val t1 = (0 until 6).map(i => CTuple(i, 1, Seq(s"l$i"), 1)).toVector
    val t2 = (0 until 6).map(i => CTuple(100 + i, 2, Seq(s"r$i"), 1)).toVector
    val ms = (for (i <- 0 until 6; j <- 0 until 6) yield TupleMatch(i, 100 + j, 0.6)).toVector
    val inst = Instance(t1, t2, ms, Phi.Equiv, params)
    val sol = ExplainSolver.solve(inst, ExplainSolver.Config(timeLimitMs = 0))
    assert(Scoring.completenessViolation(inst, sol.explanations).isEmpty)
    assert(!sol.logProb.isNegInfinity)
  }

  test("solver prefers the exact-name partner over an equally-costly decoy") {
    // leftA has two candidates: its true (balanced) program and a decoy
    // whose impacts cannot balance — the objective separates them.
    val t1 = Vector(CTuple(0, 1, Seq("a"), 1), CTuple(1, 1, Seq("b"), 2))
    val t2 = Vector(CTuple(10, 2, Seq("pa"), 1), CTuple(11, 2, Seq("pb"), 2))
    val ms = Vector(
      TupleMatch(0, 10, 0.6), TupleMatch(0, 11, 0.6),
      TupleMatch(1, 11, 0.95))
    val inst = Instance(t1, t2, ms, Phi.Equiv, params)
    val sol = ExplainSolver.solve(inst)
    assert(sol.explanations.evidence == Set((0L, 10L), (1L, 11L)))
  }
}
