package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model.SolveStats
import repro.core.Pipeline.PairStats
import repro.eval.Metrics.PRF

class ExperimentsSpec extends AnyFunSuite {

  test("roster contains the paper's algorithm lineup") {
    val names = Experiments.Roster().algorithms.map(_.name)
    assert(names.contains("FORMALEXP-Top15"))
    assert(names.contains("RSWOOSH-0.75"))
    assert(names.contains("THRESHOLD-0.9"))
    assert(names.contains("GREEDY"))
    assert(names.contains("EXACTCOVER"))
    assert(names.contains("EXPLAIN3D-BATCH-100"))
    assert(names.contains("EXPLAIN3D-NOOPT"))
  }

  test("render includes stats header, result rows and DNF markers") {
    val run = Experiments.PairRun(
      "pair", 123, PairStats(10, 12, 30),
      Seq(Harness.AlgoResult("ALGO", "pair", PRF(1, 1, 1), PRF(0.5, 0.5, 0.5), 7)),
      Seq("RSWOOSH-0.75"))
    val s = Experiments.render(run)
    assert(s.contains("|T1|=10"))
    assert(s.contains("|M_tuple|=30"))
    assert(s.contains("ALGO"))
    assert(s.contains("DNF"))
    assert(s.contains("stage 1: tuples"))
  }

  test("render marks unproved rows") {
    val run = Experiments.PairRun(
      "pair", 123, PairStats(10, 12, 30, generated = 41, labeled = 14, trueLabels = 5,
        tuplesS = 0.1, leftS = 0.08, rightS = 0.07, goldS = 0.5, candidatesS = 1.25, calibrateS = 0.02,
        compiled = 69, shuffles = 2),
      Seq(Harness.AlgoResult("ALGO", "pair", PRF(1, 1, 1), PRF(1, 1, 1), 7, proved = false)), Nil)
    val lines = Experiments.render(run).linesIterator.toSeq
    assert(lines.head.contains("stage 1: tuples 0.100s (left 0.080s, right 0.070s), gold 0.500s, " +
      "candidates 1.250s, calibrate 0.020s; 41 pairs generated, " +
      "30 candidate matches kept, 14 labeled (5 true)"), lines.head)
    assert(lines.head.contains("14 labeled (5 true), 69 classes compiled, 2 shuffles"), lines.head)
    assert(lines(1).endsWith("UNPROVED"))
  }

  test("PairStats.mean averages every field") {
    val m = PairStats.mean(Seq(PairStats(10, 20, 30, 40, 8, 2, 1, 0.5, 0.75, 2, 3, 4, 69, 2),
      PairStats(11, 21, 31, 43, 11, 5, 3, 1.5, 1.25, 4, 5, 6, 72, 9)))
    assert(m == PairStats(10, 20, 30, 41, 9, 3, 2, 1, 1, 3, 4, 5, 70, 5))
  }

  private val nooptStats = SolveStats(1, 4000, 0, 0.0, 0.012, 0.25)
  private val batchStats = SolveStats(37, 310, 96, 0.041, 0.008, 0.0312)

  test("renderSynthetic formats one line per point") {
    val pts = Seq(
      Experiments.SyntheticPoint(100, 0.2, 1000, "NOOPT", 12, 1.0, 1.0, proved = true, nooptStats),
      Experiments.SyntheticPoint(100, 0.2, 1000, "BATCH-100", 5, 0.99, 1.0, proved = true, batchStats))
    val s = Experiments.renderSynthetic(pts)
    assert(s.linesIterator.size == 2)
    assert(s.contains("NOOPT") && s.contains("BATCH-100"))
    assert(!s.contains("UNPROVED"))
    assert(s.linesIterator.toSeq(1).endsWith(
      "[37 components (largest 310 matches), 96 cut; split 0.041s, set-up 0.008s, search 0.031s]"))
  }

  test("renderSynthetic marks unproved points") {
    val pts = Seq(
      Experiments.SyntheticPoint(5000, 0.2, 1000, "NOOPT", 90000, 0.9, 0.9, proved = false, nooptStats),
      Experiments.SyntheticPoint(5000, 0.2, 1000, "BATCH-100", 800, 1.0, 1.0, proved = true, batchStats))
    val lines = Experiments.renderSynthetic(pts).linesIterator.toSeq
    assert(lines(0).contains("NOOPT") && lines(0).endsWith(
      "  [1 components (largest 4000 matches), 0 cut; split 0.000s, set-up 0.012s, search 0.250s]  UNPROVED"))
    assert(!lines(1).contains("UNPROVED"))
  }

  test("a solver-backed row ends with its solve stats, and averaged rows average them") {
    val a = Harness.AlgoResult("ALGO", "p1", PRF(1, 1, 1), PRF(1, 1, 1), 7, proved = false, Some(batchStats))
    assert(a.row.endsWith("  [37 components (largest 310 matches), 96 cut; " +
      "split 0.041s, set-up 0.008s, search 0.031s]  UNPROVED"), a.row)
    val b = a.copy(pair = "p2", stats = Some(SolveStats(4, 20, 3, 0.001, 0.002, 0.0025)))
    val m = Harness.average("t", Seq(a, b)).stats.get
    assert((m.components, m.largestComponent, m.cutMatches) == ((20, 310, 49)))
    assert(math.abs(m.splitS - 0.021) < 1e-12 && math.abs(m.setupS - 0.005) < 1e-12 &&
      math.abs(m.searchS - 0.01685) < 1e-12)
    assert(Harness.average("t", Seq(a, b.copy(stats = None))).stats.isEmpty)
  }

  test("AlgoResult row is aligned and complete") {
    val r = Harness.AlgoResult("X", "p", PRF(0.123456, 0.5, 0.2), PRF(1, 1, 1), 42)
    assert(r.row.contains("P=0.123"))
    assert(r.row.contains("42ms"))
  }
}
