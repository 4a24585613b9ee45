package repro.core

import repro.SparkSpec
import repro.baselines._
import repro.core.Model.Phi
import repro.core.Similarity.KeyAttr
import repro.data.SyntheticGen
import repro.eval.{Harness, Metrics}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

/** End-to-end pipeline tests on the §5.3 synthetic generator: stage 1 in
  * Spark, stage 2 in the solver, metrics against the derived gold standard.
  */
class PipelineSpec extends SparkSpec {

  private lazy val prepared = {
    val cfg = SyntheticGen.Config(n = 150, d = 0.2, v = 60, seed = 7)
    Pipeline.prepare(
      SyntheticGen.canonicalSide(spark, cfg, 1),
      SyntheticGen.canonicalSide(spark, cfg, 2),
      Seq(KeyAttr("match_attr")),
      Phi.Equiv)
  }

  test("stage-1 output is bit-identical to the recorded reference") {
    // Recorded from the stage 1 that tokenized both strings of every
    // candidate pair. Any change in which rows the calibration sample sees
    // changes a bucket probability and so the match digest.
    val inst = prepared.inst
    assert((inst.t1.size, inst.t2.size, inst.matches.size) == ((135, 137, 6400)))
    assert(Stage1Digest.matches(inst.matches) == "6fa7028cfafa4381")
    assert(Stage1Digest.tuples(inst.t1) == "9e1bafc6bc23d64c")
    assert(Stage1Digest.tuples(inst.t2) == "410b801089d40c05")
    assert((prepared.gold.explanations.size, prepared.gold.evidence.size) == ((54, 124)))
    assert(Stage1Digest.gold(prepared.gold) == "e72dc00448cae9db")
  }

  test("stats report every stage-1 phase and the candidate count") {
    val s = prepared.stats
    assert((s.t1, s.t2, s.nMatches) == ((prepared.inst.t1.size, prepared.inst.t2.size, prepared.inst.matches.size)))
    assert(Seq(s.goldS, s.tuplesS, s.candidatesS, s.sortS).forall(_ >= 0.0))
    assert(s.goldS + s.tuplesS + s.candidatesS > 0.0)
  }

  test("stage-1 jobs carry a phase description and the caller's description is restored") {
    val sc = spark.sparkContext
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new org.apache.spark.scheduler.SparkListener {
      override def onJobStart(e: org.apache.spark.scheduler.SparkListenerJobStart): Unit =
        seen.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse(""))
    }
    val cfg = SyntheticGen.Config(n = 40, d = 0.2, v = 30, seed = 3)
    sc.addSparkListener(listener)
    sc.setJobDescription("caller")
    try {
      Pipeline.prepare(SyntheticGen.canonicalSide(spark, cfg, 1), SyntheticGen.canonicalSide(spark, cfg, 2),
        Seq(KeyAttr("match_attr")), Phi.Equiv)
      assert(sc.getLocalProperty("spark.job.description") == "caller")
      sc.parallelize(Seq(1)).count() // a caller job marks the end of prepare's jobs on the listener bus
      eventually(timeout(Span(30, Seconds))) { assert(seen.contains("caller")) }
    } finally {
      sc.setJobDescription(null)
      sc.removeSparkListener(listener)
    }
    val descs = seen.toArray(Array.empty[String]).toSeq.takeWhile(_ != "caller")
    assert(descs.toSet == Set("stage 1: gold", "stage 1: tuples", "stage 1: candidates"), descs.distinct)
  }

  test("prepared matches are strictly sorted by (left, right)") {
    // Strictly: one match per pair, in the edge order stage 2 relies on.
    val pairs = prepared.inst.matches.map(m => (m.left, m.right))
    pairs.iterator.sliding(2).withPartial(false).foreach { case Seq(a, b) =>
      assert(Ordering[(Long, Long)].lt(a, b), s"$a before $b")
    }
  }

  test("prepare releases the relations it caches") {
    val sc = spark.sparkContext
    val cfg = SyntheticGen.Config(n = 40, d = 0.2, v = 30, seed = 5)
    val before = sc.getPersistentRDDs.size
    Pipeline.prepare(SyntheticGen.canonicalSide(spark, cfg, 1), SyntheticGen.canonicalSide(spark, cfg, 2),
      Seq(KeyAttr("match_attr")), Phi.Equiv)
    assert(sc.getPersistentRDDs.size == before)
  }

  test("prepared instance has plausible sizes") {
    val s = prepared.stats
    assert(s.t1 > 110 && s.t1 <= 150)
    assert(s.t2 > 110 && s.t2 <= 150)
    assert(s.nMatches >= s.t1.min(s.t2), "at least the true pairs must be candidates")
  }

  test("true matches receive high calibrated probabilities") {
    // A surviving pair shares its exact phrase → sim 1.0 → top bucket.
    val truePairs = prepared.gold.evidence
    val got = prepared.inst.matches
      .filter(m => truePairs.contains((prepared.keyOf(m.left)._2, prepared.keyOf(m.right)._2)))
    assert(got.nonEmpty)
    assert(got.forall(_.p > 0.8), s"min true p = ${got.map(_.p).min}")
  }

  test("EXPLAIN3D achieves near-perfect accuracy on synthetic data") {
    val res = Harness.run(Explain3DNoOpt(), prepared, "synthetic")
    assert(res.explanation.f1 > 0.9, s"explanation F1 = ${res.explanation}")
    assert(res.evidence.f1 > 0.9, s"evidence F1 = ${res.evidence}")
  }

  test("BATCH partitioned solve loses little to no accuracy") {
    val res = Harness.run(Explain3DBatch(50), prepared, "synthetic")
    assert(res.explanation.f1 > 0.85, s"explanation F1 = ${res.explanation}")
    assert(res.evidence.f1 > 0.85, s"evidence F1 = ${res.evidence}")
  }

  test("EXPLAIN3D beats THRESHOLD and EXACTCOVER on explanations") {
    val e3d = Harness.run(Explain3DNoOpt(), prepared, "s").explanation.f1
    val thr = Harness.run(Threshold(0.9), prepared, "s").explanation.f1
    val exc = Harness.run(ExactCover, prepared, "s").explanation.f1
    assert(e3d >= thr, s"e3d=$e3d thr=$thr")
    assert(e3d > exc, s"e3d=$e3d exactcover=$exc")
  }

  test("solver score equals scored decode on the prepared instance") {
    val sol = ExplainSolver.solve(prepared.inst)
    assert(Scoring.completenessViolation(prepared.inst, sol.explanations).isEmpty)
    assert(math.abs(Scoring.logProb(prepared.inst, sol.explanations) - sol.logProb) < 1e-6)
  }

  test("keyOf covers every tuple and evidence endpoints") {
    val ids = prepared.inst.tupleById.keySet
    assert(prepared.keyOf.keySet == ids)
  }

  test("a capped solve is reported and rendered as UNPROVED") {
    val capped = ExplainSolver.Config(nodeCap = 1L)
    for (algo <- Seq(Explain3DNoOpt(capped), Explain3DBatch(40, capped))) {
      val res = Harness.run(algo, prepared, "synthetic")
      assert(!res.proved, algo.name)
      assert(res.row.endsWith("UNPROVED"), res.row)
    }
    val proved = Harness.run(Explain3DNoOpt(), prepared, "synthetic")
    assert(proved.proved && !proved.row.contains("UNPROVED"))
  }

  test("all algorithms run end-to-end without error") {
    val algos = Seq(Explain3DNoOpt(), Explain3DBatch(40), Threshold(0.9), Greedy,
      RSwoosh(), ExactCover, FormalExp(15))
    val rows = algos.map(a => Harness.run(a, prepared, "synthetic"))
    assert(rows.map(_.algorithm).distinct.size == algos.size)
  }
}
