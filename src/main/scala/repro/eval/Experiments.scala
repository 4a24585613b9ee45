package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines._
import repro.core.{ExplainSolver, Pipeline, Summarize}
import repro.core.Model.Phi
import repro.core.Similarity.KeyAttr
import repro.data._

/** Shared experiment drivers behind the evaluation artifacts (Figures 4,
  * 6, 7, 8). Both the spark-submit jobs and the bench suites call these so
  * the printed tables are identical.
  */
object Experiments {

  /** RSwoosh is quadratic in the canonical size (driver-side ER loop) and,
    * like the paper's run, does not finish on the larger IMDb instances: it
    * is attempted up to this many canonical tuples and reported as DNF
    * beyond.
    */
  val RSwooshMaxTuples = 4000

  /** The algorithms of Section 5.1.3, run on every Fig-6/7 pair. */
  val Algorithms: Seq[Algorithm] = Seq(FormalExp(15), RSwoosh(0.75), Threshold(0.9), Greedy, ExactCover,
    Explain3DBatch(100), Explain3DNoOpt())

  /** Figure 8's algorithms, timed in this order. */
  val SyntheticAlgorithms: Seq[Algorithm] = Seq(Explain3DNoOpt(), Explain3DBatch(100), Explain3DBatch(1000))

  final case class PairRun(
      pairName: String,
      prepareMillis: Long,
      stats: Pipeline.PairStats,
      results: Seq[Harness.AlgoResult],
      skipped: Seq[String],
  )

  /** Prepares a pair and runs `algorithms` on it in order. With `warmUp`,
    * each runs once untimed before the timed runs, so the JIT warm-up they
    * share is not charged to the first one timed.
    */
  private def runPair(
      name: String,
      leftCanon: DataFrame,
      rightCanon: DataFrame,
      attrs: Seq[KeyAttr],
      phi: Phi,
      algorithms: Seq[Algorithm],
      simFloor: Double = 0.0,
      warmUp: Boolean = false,
  ): PairRun = {
    val t0 = System.nanoTime()
    val pair = Pipeline.prepare(leftCanon, rightCanon, attrs, phi, simFloor = simFloor)
    val prepMs = (System.nanoTime() - t0) / 1000000
    val nT = pair.inst.t1.size + pair.inst.t2.size
    val (run, skip) = algorithms.partition {
      case _: RSwoosh => nT <= RSwooshMaxTuples
      case _          => true
    }
    if (warmUp) run.foreach(a => Harness.run(a, pair, name))
    PairRun(name, prepMs, pair.stats, run.map(a => Harness.run(a, pair, name)),
      skip.map(_.name))
  }

  def render(r: PairRun): String = {
    val header =
      s"== ${r.pairName}: |T1|=${r.stats.t1} |T2|=${r.stats.t2} " +
        s"|M_tuple|=${r.stats.nMatches} (match generation ${r.prepareMillis}ms; ${r.stats.phases})"
    val rows = r.results.map(_.row)
    val skipped = r.skipped.map(n => f"${r.pairName}%-12s $n%-22s  DNF (exceeds size guard, cf. Fig 7)")
    (header +: rows ++: skipped).mkString("\n")
  }

  // ---------------------------------------------------------------- Fig 6

  /** Academic-pair canonical relations with unified match-attr name. */
  def academicPair(spark: SparkSession, cfg: AcademicData.Config): (DataFrame, DataFrame) = {
    val left = AcademicData.leftCanonical(spark, cfg).withColumnRenamed("Major", "name")
    val right = AcademicData.rightCanonical(spark, cfg).withColumnRenamed("Program", "name")
    (left, right)
  }

  /** Blocking floor used for the Academic pairs: majors are 3-token names,
    * so suffix-only or single-field-only overlaps (Jaccard ≈ 0.2) are not
    * plausible candidates; this keeps |M_tuple| near the paper's scale
    * (169/607) instead of thousands of noise pairs.
    */
  val AcademicSimFloor = 0.4

  def academic(spark: SparkSession): Seq[PairRun] =
    Seq(AcademicData.UMass, AcademicData.OSU).map { cfg =>
      val (l, r) = academicPair(spark, cfg)
      runPair(s"${cfg.univName}-NCES", l, r, Seq(KeyAttr("name")), Phi.LessGeneral, Algorithms,
        simFloor = AcademicSimFloor)
    }

  // ---------------------------------------------------------------- Fig 7

  /** Runs the 10 IMDb templates at the given instantiations and averages
    * per (template, algorithm), as the paper does over 10 instantiations.
    */
  def imdb(
      spark: SparkSession,
      cfg: ImdbData.Config,
      years: Seq[Int],
      genres: Seq[String],
  ): Seq[PairRun] = {
    val v = ImdbData.views(spark, cfg)
    val perTemplate = scala.collection.mutable.Map.empty[String, Vector[PairRun]]
    for ((year, genre) <- years.zip(genres)) {
      for (q <- ImdbQueries.all(v, year, genre)) {
        val template = q.name.takeWhile(_ != '(')
        val run = runPair(q.name, q.left, q.right, q.attrs, q.phi, Algorithms)
        perTemplate(template) = perTemplate.getOrElse(template, Vector.empty) :+ run
      }
    }
    perTemplate.toSeq.sortBy(t => (t._1.length, t._1)).map { case (template, runs) =>
      val byAlgo = runs.flatMap(_.results).groupBy(_.algorithm)
      val averaged = byAlgo.toSeq.sortBy(_._1).map { case (_, rs) => Harness.average(template, rs) }
      PairRun(
        template,
        runs.map(_.prepareMillis).sum / runs.size,
        Pipeline.PairStats.mean(runs.map(_.stats)),
        averaged,
        runs.flatMap(_.skipped).distinct,
      )
    }
  }

  // ---------------------------------------------------------------- Fig 8

  /** One Fig-8 point: the pair `cfg` generates, with the solve time (match
    * generation excluded, as in the paper) of each of
    * [[SyntheticAlgorithms]], after an untimed warm-up run of each.
    */
  def syntheticPoint(spark: SparkSession, cfg: SyntheticGen.Config): PairRun =
    runPair(s"n=${cfg.n} d=${cfg.d} v=${cfg.v}",
      SyntheticGen.canonicalSide(spark, cfg, 1), SyntheticGen.canonicalSide(spark, cfg, 2),
      Seq(KeyAttr("match_attr")), Phi.Equiv, SyntheticAlgorithms, warmUp = true)

  // ---------------------------------------------------------------- Fig 4

  /** Figure 4's Academic rows, UMass then OSU, at the blocking floor of the
    * Fig-6 runs.
    */
  def academicStats(spark: SparkSession): Seq[String] =
    Seq(AcademicData.UMass, AcademicData.OSU).map { cfg =>
      val (l, r) = academicPair(spark, cfg)
      statsRow(cfg.univName, l, r, Seq(KeyAttr("name")), Phi.LessGeneral,
        AcademicData.majorTable(spark, cfg).count(), AcademicData.rightProvenance(spark, cfg).count(),
        simFloor = AcademicSimFloor)
    }

  /** Figure 4's IMDb rows: the 10 templates at one instantiation of the
    * scaled generator, |P| counting each side's provenance relation.
    */
  def imdbStats(spark: SparkSession): Seq[String] = {
    val v = ImdbData.views(spark, ImdbData.Config(movies = 2000, actors = 2400, directors = 600))
    ImdbQueries.all(v, year = 1990, genre = "comedy").map { q =>
      statsRow(q.name, q.left, q.right, q.attrs, q.phi, q.leftProv.count(), q.rightProv.count())
    }
  }

  /** Figure 4-style statistics for one pair, including |E| → |E_S|. */
  private def statsRow(
      name: String,
      leftCanon: DataFrame,
      rightCanon: DataFrame,
      attrs: Seq[KeyAttr],
      phi: Phi,
      leftProv: Long,
      rightProv: Long,
      simFloor: Double = 0.0,
  ): String = {
    val pair = Pipeline.prepare(leftCanon, rightCanon, attrs, phi, simFloor = simFloor)
    val sol = ExplainSolver.solve(pair.inst)
    val e = sol.explanations
    val nE = e.delta.size + e.values.size
    // Stage 3: summarize over every attribute the tuples carry (matching
    // attributes and extras such as Degree).
    val targetIds = e.explanationTupleIds
    val targets = pair.inst.tupleById.collect { case (id, t) if targetIds.contains(id) => t.attrs }.toSeq
    val others = pair.inst.tupleById.collect { case (id, t) if !targetIds.contains(id) => t.attrs }.toSeq
    val summary = Summarize.summarize(targets, others)
    f"$name%-12s |P|=$leftProv/$rightProv |T|=${pair.inst.t1.size}/${pair.inst.t2.size} " +
      f"|M|=${pair.inst.matches.size} |M*|=${e.evidence.size} |E|=$nE -> |E_S|=${summary.size}"
  }
}
