package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model.SolveStats
import repro.core.Pipeline.PairStats
import repro.eval.Metrics.PRF

class ExperimentsSpec extends AnyFunSuite {

  test("roster contains the paper's algorithm lineup") {
    val names = Experiments.Algorithms.map(_.name)
    assert(names.contains("FORMALEXP-Top15"))
    assert(names.contains("RSWOOSH-0.75"))
    assert(names.contains("THRESHOLD-0.9"))
    assert(names.contains("GREEDY"))
    assert(names.contains("EXACTCOVER"))
    assert(names.contains("EXPLAIN3D-BATCH-100"))
    assert(names.contains("EXPLAIN3D-NOOPT"))
    assert(Experiments.SyntheticAlgorithms.map(_.name) ==
      Seq("EXPLAIN3D-NOOPT", "EXPLAIN3D-BATCH-100", "EXPLAIN3D-BATCH-1000"))
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

  // A Fig 8 point is a PairRun printed by render, like a Fig 6/7 pair; the
  // two tests below keep the names they had when Fig 8 had its own renderer.
  private val fig8Name = "n=5000 d=0.2 v=1000"

  private def fig8Point(nooptProved: Boolean): Experiments.PairRun = {
    def result(algorithm: String, ms: Long, stats: SolveStats, proved: Boolean = true) =
      Harness.AlgoResult(algorithm, fig8Name, PRF(1, 1, 1), PRF(1, 1, 1), ms, proved, Some(stats), Some(-812.25))
    Experiments.PairRun(fig8Name, 850, PairStats(4012, 3987, 499813), Seq(
      result("EXPLAIN3D-NOOPT", 120000, nooptStats, proved = nooptProved),
      result("EXPLAIN3D-BATCH-100", 800, batchStats),
      result("EXPLAIN3D-BATCH-1000", 900, batchStats)), Nil)
  }

  test("renderSynthetic formats one line per point") {
    val lines = Experiments.render(fig8Point(nooptProved = true)).linesIterator.toSeq
    assert(lines.size == 1 + Experiments.SyntheticAlgorithms.size)
    assert(lines.head.startsWith(
      s"== $fig8Name: |T1|=4012 |T2|=3987 |M_tuple|=499813 (match generation 850ms; stage 1: tuples"), lines.head)
    assert(lines.tail.map(_.split(" +")(3)) == Experiments.SyntheticAlgorithms.map(_.name))
    assert(lines.forall(!_.contains("UNPROVED")))
    assert(lines(2).endsWith("obj=-812.2500  [37 components (largest 310 matches), 96 cut; " +
      "split 0.041s, set-up 0.008s, search 0.031s]"), lines(2))
  }

  test("renderSynthetic marks unproved points") {
    val lines = Experiments.render(fig8Point(nooptProved = false)).linesIterator.toSeq
    assert(lines(1).contains("EXPLAIN3D-NOOPT") && lines(1).endsWith(
      "obj=-812.2500  [1 components (largest 4000 matches), 0 cut; " +
        "split 0.000s, set-up 0.012s, search 0.250s]  UNPROVED"), lines(1))
    assert(lines.count(_.contains("UNPROVED")) == 1)
  }

  test("a solver-backed row ends with its solve stats, and averaged rows average them") {
    val a = Harness.AlgoResult("ALGO", "p1", PRF(1, 1, 1), PRF(1, 1, 1), 7, proved = false, Some(batchStats),
      Some(-12.5))
    assert(a.row.endsWith("7ms  obj=-12.5000  [37 components (largest 310 matches), 96 cut; " +
      "split 0.041s, set-up 0.008s, search 0.031s]  UNPROVED"), a.row)
    val b = a.copy(pair = "p2", stats = Some(SolveStats(4, 20, 3, 0.001, 0.002, 0.0025)), objective = Some(-10.0))
    val avg = Harness.average("t", Seq(a, b))
    val m = avg.stats.get
    assert((m.components, m.largestComponent, m.cutMatches) == ((20, 310, 49)))
    assert(math.abs(m.splitS - 0.021) < 1e-12 && math.abs(m.setupS - 0.005) < 1e-12 &&
      math.abs(m.searchS - 0.01685) < 1e-12)
    assert(avg.objective.contains(-11.25))
    val partial = Harness.average("t", Seq(a, b.copy(stats = None, objective = None)))
    assert(partial.stats.isEmpty && partial.objective.isEmpty)
  }

  test("AlgoResult row is aligned and complete") {
    val r = Harness.AlgoResult("X", "p", PRF(0.123456, 0.5, 0.2), PRF(1, 1, 1), 42)
    assert(r.row.contains("P=0.123"))
    assert(r.row.contains("42ms"))
    assert(!r.row.contains("obj="), "a baseline row has no objective")
  }
}
