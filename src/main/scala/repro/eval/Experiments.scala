package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.baselines._
import repro.core.{ExplainSolver, Pipeline, Summarize}
import repro.core.Model.{Phi, SolveStats}
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

  /** The evaluated algorithm roster of Section 5.1.3. */
  final case class Roster(
      solverCfg: ExplainSolver.Config = ExplainSolver.Config(),
      batchSizes: Seq[Int] = Seq(100),
  ) {
    def algorithms: Seq[Algorithm] =
      Seq(FormalExp(15), RSwoosh(0.75), Threshold(0.9), Greedy, ExactCover) ++
        batchSizes.map(b => Explain3DBatch(b, solverCfg)) :+ Explain3DNoOpt(solverCfg)
  }

  final case class PairRun(
      pairName: String,
      prepareMillis: Long,
      stats: Pipeline.PairStats,
      results: Seq[Harness.AlgoResult],
      skipped: Seq[String],
  )

  /** Prepares a pair and runs the full roster on it. */
  def runPair(
      name: String,
      leftCanon: DataFrame,
      rightCanon: DataFrame,
      attrs: Seq[KeyAttr],
      phi: Phi,
      roster: Roster,
      simFloor: Double = 0.0,
  ): PairRun = {
    val t0 = System.nanoTime()
    val pair = Pipeline.prepare(leftCanon, rightCanon, attrs, phi, simFloor = simFloor)
    val prepMs = (System.nanoTime() - t0) / 1000000
    val nT = pair.inst.t1.size + pair.inst.t2.size
    val (run, skip) = roster.algorithms.partition {
      case _: RSwoosh => nT <= RSwooshMaxTuples
      case _          => true
    }
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

  def academic(spark: SparkSession, roster: Roster = Roster()): Seq[PairRun] =
    Seq(AcademicData.UMass, AcademicData.OSU).map { cfg =>
      val (l, r) = academicPair(spark, cfg)
      runPair(s"${cfg.univName}-NCES", l, r, Seq(KeyAttr("name")), Phi.LessGeneral, roster,
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
      roster: Roster = Roster(),
  ): Seq[PairRun] = {
    val v = ImdbData.views(spark, cfg)
    val perTemplate = scala.collection.mutable.Map.empty[String, Vector[PairRun]]
    for ((year, genre) <- years.zip(genres)) {
      for (q <- ImdbQueries.all(v, year, genre)) {
        val template = q.name.takeWhile(_ != '(')
        val run = runPair(q.name, q.left, q.right, q.attrs, q.phi, roster)
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

  final case class SyntheticPoint(
      n: Int, d: Double, v: Int,
      algorithm: String, solveMillis: Long, explF1: Double, evidF1: Double, proved: Boolean,
      stats: SolveStats = SolveStats())

  /** One Fig-8 measurement: solve time (match generation excluded, as in the
    * paper) of NOOPT and the given batch sizes on one generator setting,
    * each run through [[Harness.run]]. Every row runs once untimed before
    * the timed runs, so the JIT warm-up the rows share is not charged to
    * NOOPT, which is timed first.
    */
  def syntheticPoint(
      spark: SparkSession,
      cfg: SyntheticGen.Config,
      batchSizes: Seq[Int],
      solverCfg: ExplainSolver.Config,
  ): Seq[SyntheticPoint] = {
    val pair = Pipeline.prepare(
      SyntheticGen.canonicalSide(spark, cfg, 1),
      SyntheticGen.canonicalSide(spark, cfg, 2),
      Seq(KeyAttr("match_attr")), Phi.Equiv)
    val algos = ("NOOPT" -> Explain3DNoOpt(solverCfg)) +:
      batchSizes.map(b => s"BATCH-$b" -> Explain3DBatch(b, solverCfg))
    algos.foreach { case (nm, algo) => Harness.run(algo, pair, nm) }
    algos.map { case (nm, algo) =>
      val r = Harness.run(algo, pair, nm)
      SyntheticPoint(cfg.n, cfg.d, cfg.v, nm, r.solveMillis, r.explanation.f1, r.evidence.f1, r.proved,
        r.stats.getOrElse(SolveStats()))
    }
  }

  /** One line per point, with its solve stats; a capped or timed-out
    * solve is marked UNPROVED at the end.
    */
  def renderSynthetic(points: Seq[SyntheticPoint]): String =
    points.map { p =>
      f"n=${p.n}%-6d d=${p.d}%.1f v=${p.v}%-6d ${p.algorithm}%-12s " +
        f"solve=${p.solveMillis}%6dms  explF1=${p.explF1}%.3f evidF1=${p.evidF1}%.3f" +
        s"  [${p.stats}]" + (if (p.proved) "" else "  UNPROVED")
    }.mkString("\n")

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

  /** Figure 4-style statistics for one pair, including |E| → |E_S|. */
  def statsRow(
      name: String,
      leftCanon: DataFrame,
      rightCanon: DataFrame,
      attrs: Seq[KeyAttr],
      phi: Phi,
      leftProv: Long,
      rightProv: Long,
      solverCfg: ExplainSolver.Config = ExplainSolver.Config(),
      simFloor: Double = 0.0,
  ): String = {
    val pair = Pipeline.prepare(leftCanon, rightCanon, attrs, phi, simFloor = simFloor)
    val sol = ExplainSolver.solve(pair.inst, solverCfg)
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
