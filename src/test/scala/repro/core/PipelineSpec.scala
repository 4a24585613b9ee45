package repro.core

import repro.SparkSpec
import repro.baselines._
import repro.core.Model.Phi
import repro.core.Similarity.KeyAttr
import repro.data.SyntheticGen
import repro.eval.{Harness, Metrics}
import org.apache.spark.sql.DataFrame
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

/** End-to-end pipeline tests on the §5.3 synthetic generator: stage 1 in
  * Spark, stage 2 in the solver, metrics against the derived gold standard.
  */
class PipelineSpec extends SparkSpec {

  private val cfg150 = SyntheticGen.Config(n = 150, d = 0.2, v = 60, seed = 7)

  /** Prepares the n=150 pair with `physical` applied to both canonical inputs. */
  private def prepare150(physical: DataFrame => DataFrame = identity): Pipeline.PreparedPair =
    Pipeline.prepare(
      physical(SyntheticGen.canonicalSide(spark, cfg150, 1)),
      physical(SyntheticGen.canonicalSide(spark, cfg150, 2)),
      Seq(KeyAttr("match_attr")),
      Phi.Equiv)

  private lazy val prepared = prepare150()

  test("stage-1 output is bit-identical to the recorded reference") {
    // Tuples and gold recorded from the stage 1 that tokenized both strings
    // of every candidate pair; the match digest from the one whose
    // calibration labels are keyed by a hash of the pair. Any change in
    // which pairs the label sample holds changes a bucket probability and
    // so the match digest.
    val inst = prepared.inst
    assert((inst.t1.size, inst.t2.size, inst.matches.size) == ((135, 137, 6400)))
    assert(Stage1Digest.matches(inst.matches) == "e29671b35bfbe756")
    assert(Stage1Digest.tuples(inst.t1) == "9e1bafc6bc23d64c")
    assert(Stage1Digest.tuples(inst.t2) == "410b801089d40c05")
    assert((prepared.gold.explanations.size, prepared.gold.evidence.size) == ((54, 124)))
    assert(Stage1Digest.gold(prepared.gold) == "e72dc00448cae9db")
  }

  test("stage 1 is a pure function of its logical input") {
    def digest(p: Pipeline.PreparedPair) = Seq(Stage1Digest.matches(p.inst.matches),
      Stage1Digest.tuples(p.inst.t1), Stage1Digest.tuples(p.inst.t2), Stage1Digest.gold(p.gold))
    val expected = digest(prepared)
    // Without adaptive execution every shuffle keeps 7 partitions; with it,
    // n=150 coalesces each to one, which hides partitioning dependence.
    val conf = Seq("spark.sql.adaptive.enabled" -> "false", "spark.sql.shuffle.partitions" -> "7")
    val saved = conf.map { case (k, _) => k -> spark.conf.get(k) }
    val cached = scala.collection.mutable.Buffer.empty[DataFrame]
    conf.foreach { case (k, v) => spark.conf.set(k, v) }
    try {
      val differing = Seq[(String, DataFrame => DataFrame)](
          "as given" -> identity, "repartition(1)" -> (_.repartition(1)),
          "repartition(7)" -> (_.repartition(7)), "cache" -> { df => cached += df.cache(); df })
        .collect { case (name, physical) if digest(prepare150(physical)) != expected => name }
      assert(differing.isEmpty, differing)
    } finally {
      cached.foreach(_.unpersist())
      saved.foreach { case (k, v) => spark.conf.set(k, v) }
    }
  }

  test("stats report every stage-1 phase and the candidate count") {
    val s = prepared.stats
    assert((s.t1, s.t2, s.nMatches) == ((prepared.inst.t1.size, prepared.inst.t2.size, prepared.inst.matches.size)))
    assert(Seq(s.tuplesS, s.goldS, s.candidatesS, s.calibrateS, s.sortS).forall(_ >= 0.0))
    assert(s.tuplesS + s.candidatesS > 0.0)
    assert(s.labeled > 0 && s.labeled < s.nMatches, s.labeled)
    assert(s.trueLabels > 0 && s.trueLabels <= s.labeled, s.trueLabels)
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
    assert(descs.toSet == Set("stage 1: tuples", "stage 1: candidates"), descs.distinct)
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
