package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Model._
import repro.core.Similarity.KeyAttr
import repro.eval.Gold

/** Stage-1 orchestration: canonical relations → candidate matches →
  * calibrated probabilities → an in-driver [[Model.Instance]], the gold
  * standard, and the id→key translation used by metrics.
  *
  * Spark does the heavy lifting (similarity join over provenance-scale data,
  * calibration group-bys); only the canonical relations and candidate match
  * list — orders of magnitude smaller than the raw datasets — are collected
  * for the stage-2 solver, mirroring the paper's CPLEX architecture.
  */
object Pipeline {

  final case class PreparedPair(
      inst: Instance,
      keyOf: Map[Long, (Int, String)],
      gold: Gold.GoldStandard,
      stats: PairStats,
  )

  /** What stage 1 produced for one pair and where its time went: the
    * tuple and match counts, and wall seconds of each phase of [[prepare]]
    * (gold derivation, the tuple collect, the candidate + calibration
    * collect, the driver-side sort).
    */
  final case class PairStats(
      t1: Int,
      t2: Int,
      nMatches: Int,
      goldS: Double = 0.0,
      tuplesS: Double = 0.0,
      candidatesS: Double = 0.0,
      sortS: Double = 0.0,
  ) {
    def phases: String =
      f"stage 1: gold $goldS%.3fs, tuples $tuplesS%.3fs, candidates $candidatesS%.3fs, " +
        f"sort $sortS%.3fs; $nMatches candidate matches"
  }

  object PairStats {
    /** Field-wise mean; counts use integer division. */
    def mean(ss: Seq[PairStats]): PairStats = {
      val n = ss.size
      PairStats(ss.map(_.t1).sum / n, ss.map(_.t2).sum / n, ss.map(_.nMatches).sum / n,
        ss.map(_.goldS).sum / n, ss.map(_.tuplesS).sum / n,
        ss.map(_.candidatesS).sum / n, ss.map(_.sortS).sum / n)
    }
  }

  private val JobDescription = "spark.job.description"

  /** Runs one phase of [[prepare]] with its Spark jobs described as
    * `stage 1: <name>`, then restores the caller's job description.
    * Returns the result and the phase's wall seconds.
    */
  private def phase[A](sc: SparkContext, name: String)(body: => A): (A, Double) = {
    val caller = sc.getLocalProperty(JobDescription)
    sc.setJobDescription(s"stage 1: $name")
    val t0 = System.nanoTime()
    try {
      val a = body
      (a, (System.nanoTime() - t0) / 1e9)
    } finally sc.setLocalProperty(JobDescription, caller)
  }

  /** Orders matches by (left, right): the edge order stage 2 sees. */
  private val byPair: Ordering[TupleMatch] = (a, b) => {
    val c = java.lang.Long.compare(a.left, b.left)
    if (c != 0) c else java.lang.Long.compare(a.right, b.right)
  }

  /** Assigns a deterministic 0-based `cid` by sorting on the key columns. */
  def withCid(canon: DataFrame, matchAttrs: Seq[String]): DataFrame = {
    val w = Window.orderBy(matchAttrs.map(col) :+ col("I"): _*)
    canon.withColumn("cid", row_number().over(w).cast("long") - 1)
  }

  /** Full stage-1 preparation of one comparable query pair, under the
    * default priors and calibration. Candidates are unique per (lid, rid):
    * the similarity join emits distinct pairs and calibration one row per
    * pair, so the matches need only be sorted.
    */
  def prepare(
      leftCanon: DataFrame,
      rightCanon: DataFrame,
      attrs: Seq[KeyAttr],
      phi: Phi,
      simFloor: Double = 0.0,
  ): PreparedPair = {
    val matchAttrs = attrs.map(_.name)
    val lc = withCid(leftCanon, matchAttrs).cache()
    val rc = withCid(rightCanon, matchAttrs).cache()

    // simFloor models the blocking step of practical linkage systems: pairs
    // below the floor never become candidates (zero-overlap pairs already
    // don't). 0.0 keeps every token-sharing pair.
    val simsAll = Similarity.candidatePairs(lc, rc, attrs)
    val sims = if (simFloor > 0.0) simsAll.filter(col("sim") >= simFloor) else simsAll
    val goldEvCid = lc.filter(col("uid").isNotNull)
      .select(col("cid").as("lid"), col("uid").as("l_uid"))
      .join(
        rc.filter(col("uid").isNotNull).select(col("cid").as("rid"), col("uid").as("r_uid")),
        col("l_uid") === col("r_uid"))
      .select("lid", "rid")
    val probs = Calibration.calibrate(sims, goldEvCid)

    val sc = lc.sparkSession.sparkContext
    val (gold, goldS) = phase(sc, "gold")(Gold.derive(lc, rc, matchAttrs, phi))

    def collectSide(df: DataFrame, side: Int, offset: Long): Vector[CTuple] = {
      // Any column beyond (cid, matchAttrs, I, uid) is an extra provenance
      // attribute carried for stage-3 summarization.
      val extras = df.columns.toSeq.diff(matchAttrs ++ Seq("cid", "I", "uid"))
      val cols = col("cid") +:
        (matchAttrs ++ extras).map(c => coalesce(col(c).cast("string"), lit(""))) :+
        col("I").cast("double")
      val iIdx = 1 + matchAttrs.size + extras.size
      df.select(cols: _*).collect().toVector.map { r =>
        val key = (1 to matchAttrs.size).map(r.getString)
        val extraVals = extras.indices.map(i => r.getString(1 + matchAttrs.size + i))
        CTuple(r.getLong(0) + offset, side, key, r.getDouble(iIdx),
          matchAttrs.zip(key).toMap ++ extras.zip(extraVals).toMap)
      }
    }
    val ((t1, t2), tuplesS) = phase(sc, "tuples") {
      val t1 = collectSide(lc, 1, 0L)
      (t1, collectSide(rc, 2, t1.size.toLong))
    }
    val offset = t1.size.toLong

    val (candidates, candidatesS) = phase(sc, "candidates")(
      probs.select("lid", "rid", "p").collect()
        .map { case Row(l: Long, r: Long, p: Double) => TupleMatch(l, r + offset, p) })
    lc.unpersist()
    rc.unpersist()
    val (matches, sortS) = phase(sc, "sort")(candidates.sorted(byPair).toVector)

    val inst = Instance(t1, t2, matches, phi)
    val keyOf = (t1 ++ t2).map(t => t.id -> (t.side, t.key.mkString("|"))).toMap
    PreparedPair(inst, keyOf, gold, PairStats(t1.size, t2.size, matches.size, goldS, tuplesS, candidatesS, sortS))
  }
}
