package repro.bench

import repro.SparkSpec
import repro.data.SyntheticGen
import repro.eval.{Experiments, Harness}
import repro.eval.Experiments.PairRun

/** Figure 8: solve-time of NOOPT vs BATCH-100 vs BATCH-1000 over the
  * synthetic generator sweeps (match-generation time excluded, as in the
  * paper).
  *
  * Paper shape: (a) NOOPT grows super-linearly with n while BATCH grows
  * linearly (BATCH-1000 >20× faster at the top of the sweep; BATCH-1000
  * beats BATCH-100 except at small vocabularies); (b) lower difference
  * ratios d are harder for everyone; (c) small vocabularies blow up the
  * number of matches — BATCH-100 wins there (15× over NOOPT at v=100),
  * converging as v grows. Accuracy stays near-perfect for all three. Our
  * sweep caps n at 5000 (driver-collected matches; DESIGN.md).
  */
class Fig8SyntheticBench extends SparkSpec {

  /** Runs and prints one point per generator setting. */
  private def sweep(cfgs: Seq[SyntheticGen.Config]): Seq[(SyntheticGen.Config, PairRun)] =
    cfgs.map { c =>
      val run = Experiments.syntheticPoint(spark, c)
      println(Experiments.render(run) + "\n")
      c -> run
    }

  private def row(run: PairRun, algorithm: String): Harness.AlgoResult =
    run.results.find(_.algorithm == algorithm).get

  test("Figure 8a: sweep n (d=0.2, v=1000)") {
    val points = sweep(Seq(100, 300, 1000, 5000).map(n => SyntheticGen.Config(n = n)))
    // Partitioning (BATCH-100) must beat the unpartitioned solve at the top
    // of the sweep — the paper's headline claim. (Our B&B has no per-MILP
    // setup cost, so unlike the paper's CPLEX, BATCH-100 is the fastest
    // batch size throughout; see EXPERIMENTS.md.)
    val at5000 = points.collectFirst { case (c, run) if c.n == 5000 => run }.get
    val noopt = row(at5000, "EXPLAIN3D-NOOPT")
    val b100 = row(at5000, "EXPLAIN3D-BATCH-100")
    assert(b100.solveMillis < noopt.solveMillis,
      s"partitioning must be faster at n=5000: ${b100.solveMillis} vs ${noopt.solveMillis}")
    points.map { case (_, run) => row(run, "EXPLAIN3D-BATCH-100") }.foreach { r =>
      assert(r.explanation.f1 > 0.9 && r.evidence.f1 > 0.9, s"near-perfect accuracy expected: ${r.row}")
    }
  }

  test("Figure 8b: sweep d (n=1000, v=1000)") {
    val points = sweep(Seq(0.1, 0.3, 0.5).map(d => SyntheticGen.Config(n = 1000, d = d)))
    points.flatMap(_._2.results).foreach { r =>
      assert(r.explanation.f1 > 0.85 && r.evidence.f1 > 0.85, s"accuracy: ${r.row}")
    }
  }

  test("Figure 8c: sweep v (n=1000, d=0.2)") {
    val points = sweep(Seq(100, 1000, 10000).map(v => SyntheticGen.Config(n = 1000, v = v)))
    // At v=100 the candidate-match count explodes; partitioning must help.
    val at100 = points.collectFirst { case (c, run) if c.v == 100 => run }.get
    val noopt = row(at100, "EXPLAIN3D-NOOPT")
    val b100 = row(at100, "EXPLAIN3D-BATCH-100")
    assert(b100.solveMillis <= noopt.solveMillis,
      s"BATCH-100 must not be slower at v=100: ${b100.solveMillis} vs ${noopt.solveMillis}")
  }
}
