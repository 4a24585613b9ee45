package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Canonicalize, Provenance}

/** Synthetic substitute for the paper's Academic datasets (Section 5.1.1).
  *
  * The real pairs (UMass-Amherst vs. NCES, OSU vs. NCES) are hand-scraped
  * web data; we generate pairs with the same *statistical* structure,
  * matching Figure 4's dataset statistics:
  *
  *  - left side `Major(Major, Degree, School)`: one row per degree program,
  *    some majors offered as both B.S. and B.A. (counted twice by Q1);
  *  - right side `School(ID, Univ_name, City, Url)` ⋈
  *    `Stats(ID, Program, bach_degr)`: one row per program *group* with a
  *    bachelor-degree count, for many universities (Q2 filters one);
  *  - attribute match `(Major.Major) ⊑ (Stats.Program)` (Figure 5);
  *  - a block of left-only majors tagged `Degree='Associate'` (the paper's
  *    summarization finding), right-only programs, multi-degree majors whose
  *    NCES count is 1 (value-based explanations), and renamed program names
  *    — some with zero token overlap, reproducing the Academic datasets'
  *    low-quality initial mapping that sinks RSwoosh/Threshold recall.
  *
  * The true entity id (`uid`) is threaded through both sides for gold
  * derivation.
  */
object AcademicData {

  final case class Config(
      univName: String,
      nCanonLeft: Int,
      nDoubleDegree: Int,
      nMatchedLeft: Int,
      nGroupsOf2: Int,
      nRightOnly: Int,
      nAssocUnmatched: Int,
      nDecoyPairs: Int,
      seed: Long = 11,
  ) {
    require(nMatchedLeft + nAssocUnmatched <= nCanonLeft)
    require(2 * nGroupsOf2 + 2 * nDecoyPairs <= nMatchedLeft)
    def nRightGroups: Int = nMatchedLeft - nGroupsOf2
  }

  /** Figure 4's UMass-vs-NCES statistics: 113/113/95 left, 81 right canon. */
  val UMass: Config = Config("UMass-Amherst", nCanonLeft = 95, nDoubleDegree = 18,
    nMatchedLeft = 71, nGroupsOf2 = 7, nRightOnly = 17, nAssocUnmatched = 16,
    nDecoyPairs = 10, seed = 11)

  /** Figure 4's OSU-vs-NCES statistics: 282/282/206 left, 153 right canon. */
  val OSU: Config = Config("OSU", nCanonLeft = 206, nDoubleDegree = 76,
    nMatchedLeft = 140, nGroupsOf2 = 13, nRightOnly = 26, nAssocUnmatched = 40,
    nDecoyPairs = 20, seed = 23)

  // Shares of single programs hard- and soft-renamed, of double-degree
  // groups that NCES counts once per major, and of single-degree counts
  // inflated by 1–2; and the other universities' rows in the Stats table.
  private val HardRenameFrac = 0.15
  private val SoftRenameFrac = 0.35
  private val ValueOneFrac = 0.8
  private val SingletonCorruptFrac = 0.10
  private val NOtherUnivPrograms = 5000

  private val fields = Vector(
    "computer", "electrical", "mechanical", "civil", "chemical", "industrial",
    "environmental", "biomedical", "aerospace", "nuclear", "materials", "software",
    "animal", "plant", "soil", "food", "equine", "turfgrass", "landscape", "forestry",
    "marketing", "finance", "accounting", "management", "economics", "operations",
    "history", "philosophy", "psychology", "sociology", "anthropology", "linguistics",
    "mathematics", "statistics", "physics", "chemistry", "biology", "geology",
    "astronomy", "nursing", "kinesiology", "education", "music", "dance", "theater",
    "art", "design", "architecture", "journalism", "communication", "classics",
    "english", "spanish", "french", "german", "italian", "chinese", "japanese",
    "portuguese", "arabic", "hebrew", "polish", "russian", "nutrition", "public",
    "political", "urban", "legal", "marine", "wildlife", "dairy", "horticulture",
  )
  private val leftSuffixes  = Vector("science", "engineering", "studies", "arts", "technology")
  private val rightSuffixes = Vector("administration", "operations", "practice")

  private final case class Group(
      uid: String,
      leftMajors: Seq[(String, Seq[String])], // (major name, degree rows)
      program: Option[String],                // right program name, if matched
      bachDegr: Option[Double],
  )

  /** Deterministic construction of all groups of one pair.
    *
    * Naming model: every major is `<stem> <suffix>`, where a *stem* is a
    * unique unordered pair of field words. Two majors share a stem only by
    * design:
    *  - the members of a many-to-one group share the program's stem;
    *  - *decoy pairs* — two singleton majors with the same stem, one of
    *    whose programs is soft-renamed — put false candidate pairs into the
    *    same similarity bucket as the renamed true pairs, which drives that
    *    bucket's calibrated probability into the mid range. THRESHOLD-0.9
    *    discards those matches (recall loss); EXPLAIN3D recovers them via
    *    the objective — the paper's central contrast on the Academic data.
    *
    * Renames of program names: *soft* = swap the suffix for an NCES-style
    * one (similarity 0.5), *hard* = concatenate all tokens (similarity 0,
    * invisible to any token-based matcher, like the paper's "Foodservice
    * Systems Administration" vs "Food Business Management" example).
    */
  private def groups(cfg: Config): Seq[Group] = {
    val rnd = new scala.util.Random(cfg.seed)
    // 3-field stems: accidental cross-name overlap is at most one field plus
    // a suffix (Jaccard 2/6 ≈ 0.33, below the blocking floor), while a
    // soft-renamed program shares its full stem (3/5 = 0.6).
    val stems = rnd.shuffle(
      for {
        i <- fields.indices.toVector; j <- fields.indices; k <- fields.indices
        if i < j && j < k && (i + j + k) % 7 == 0 // thin the cube deterministically
      } yield s"${fields(i)} ${fields(j)} ${fields(k)}")
    val stemIter = stems.iterator
    def freshStem(): String = stemIter.next()
    def suffix(): String = leftSuffixes(rnd.nextInt(leftSuffixes.size))
    def rightSuffix(): String = rightSuffixes(rnd.nextInt(rightSuffixes.size))
    def twoSuffixes(): (String, String) = {
      val a = suffix()
      val b = leftSuffixes.filter(_ != a)(rnd.nextInt(leftSuffixes.size - 1))
      (a, b)
    }

    // Left name slots: indices partitioned into [paired | decoys | other
    // singles | unmatched]. Names are assigned below, stems per the model.
    val nPaired = 2 * cfg.nGroupsOf2
    val nDecoy = 2 * cfg.nDecoyPairs
    val leftNames = new Array[String](cfg.nCanonLeft)
    val pairStems = (0 until cfg.nGroupsOf2).map(_ => freshStem())
    for (p <- 0 until cfg.nGroupsOf2) {
      val (sa, sb) = twoSuffixes()
      leftNames(2 * p) = s"${pairStems(p)} $sa"
      leftNames(2 * p + 1) = s"${pairStems(p)} $sb"
    }
    val decoyStems = (0 until cfg.nDecoyPairs).map(_ => freshStem())
    for (p <- 0 until cfg.nDecoyPairs) {
      val (sa, sb) = twoSuffixes()
      leftNames(nPaired + 2 * p) = s"${decoyStems(p)} $sa"
      leftNames(nPaired + 2 * p + 1) = s"${decoyStems(p)} $sb"
    }
    for (i <- (nPaired + nDecoy) until cfg.nCanonLeft)
      leftNames(i) = s"${freshStem()} ${suffix()}"
    val rightOnlyNames = (0 until cfg.nRightOnly).map(_ => s"${freshStem()} ${suffix()}")

    // Which left majors have two degree rows (B.S. + B.A.). Indices that
    // will be rewritten as associate-only programs are excluded so the
    // provenance count stays exactly nCanonLeft + nDoubleDegree. Decoy
    // pairs are impact-asymmetric by construction (second member double,
    // first single) so the objective strictly prefers the true assignment
    // over the same-probability cross pair.
    val assocRange = (cfg.nMatchedLeft until cfg.nMatchedLeft + cfg.nAssocUnmatched).toSet
    val decoyA = (0 until cfg.nDecoyPairs).map(p => nPaired + 2 * p).toSet
    val decoyB = (0 until cfg.nDecoyPairs).map(p => nPaired + 2 * p + 1).toSet
    require(cfg.nDoubleDegree >= cfg.nDecoyPairs, "need a double degree per decoy pair")
    val doubleSet = decoyB ++ rnd.shuffle(
      leftNames.indices.filterNot(i => assocRange(i) || decoyA(i) || decoyB(i)).toVector)
      .take(cfg.nDoubleDegree - cfg.nDecoyPairs)
    def degreesOf(i: Int): Seq[String] =
      if (doubleSet.contains(i)) Seq("B.S.", "B.A.") else Seq(if (rnd.nextBoolean()) "B.S." else "B.A.")
    val leftDegrees = leftNames.indices.map(i => degreesOf(i))

    def stemOf(name: String): String = name.split(" ").dropRight(1).mkString(" ")
    def softRename(name: String): String = s"${stemOf(name)} ${rightSuffix()}"
    def hardRename(name: String): String =
      name.split(" ").mkString("") + " " + rightSuffix()

    val builder = Seq.newBuilder[Group]
    val usedPrograms = scala.collection.mutable.Set.empty[String]
    def unique(name: String): String = {
      var candidate = name
      var k = 2
      while (usedPrograms.contains(candidate)) { candidate = s"$name $k"; k += 1 }
      usedPrograms += candidate
      candidate
    }

    def bachOf(members: Seq[Int], allowCorrupt: Boolean = true): Double = {
      // True bachelor-degree count = total left degree rows in the group.
      val trueCount = members.map(i => leftDegrees(i).size).sum.toDouble
      val hasDouble = members.exists(doubleSet.contains)
      if (hasDouble && rnd.nextDouble() < ValueOneFrac)
        members.size.toDouble // each major counted once: the paper's CS case
      else if (allowCorrupt && !hasDouble && rnd.nextDouble() < SingletonCorruptFrac)
        trueCount + 1 + rnd.nextInt(2)
      else trueCount
    }
    var g = 0
    def emit(members: Seq[Int], program: String, allowCorrupt: Boolean = true): Unit = {
      builder += Group(s"g$g", members.map(i => leftNames(i) -> leftDegrees(i)),
        Some(unique(program)), Some(bachOf(members, allowCorrupt)))
      g += 1
    }

    // Many-to-one groups: program carries the shared stem, soft-renamed.
    for (p <- 0 until cfg.nGroupsOf2)
      emit(Seq(2 * p, 2 * p + 1), s"${pairStems(p)} ${rightSuffix()}")
    // Decoy pairs: first member's program soft-renamed (kept uncorrupted so
    // its true assignment is the balanced one), second exact.
    for (p <- 0 until cfg.nDecoyPairs) {
      emit(Seq(nPaired + 2 * p), softRename(leftNames(nPaired + 2 * p)), allowCorrupt = false)
      emit(Seq(nPaired + 2 * p + 1), leftNames(nPaired + 2 * p + 1))
    }
    // Remaining singles: exact / soft / hard renamed per the fractions above.
    for (i <- (nPaired + nDecoy) until cfg.nMatchedLeft) {
      val r = rnd.nextDouble()
      val program =
        if (r < HardRenameFrac) hardRename(leftNames(i))
        else if (r < HardRenameFrac + SoftRenameFrac) softRename(leftNames(i))
        else leftNames(i)
      emit(Seq(i), program)
    }
    // Unmatched left majors; the first nAssocUnmatched are associate-degree
    // programs (absent from NCES bachelor counts — the summarization target).
    val unmatchedIdx = leftNames.indices.drop(cfg.nMatchedLeft)
    unmatchedIdx.zipWithIndex.foreach { case (i, j) =>
      val degrees = if (j < cfg.nAssocUnmatched) Seq("Associate") else leftDegrees(i)
      builder += Group(s"l$i", Seq(leftNames(i) -> degrees), None, None)
    }
    rightOnlyNames.zipWithIndex.foreach { case (nm, j) =>
      builder += Group(s"r$j", Seq.empty, Some(unique(nm)), Some((1 + rnd.nextInt(3)).toDouble))
    }
    builder.result()
  }

  /** The left table `Major(Major, Degree, School)` (+ uid). */
  def majorTable(spark: SparkSession, cfg: Config): DataFrame = {
    import spark.implicits._
    val rows = for {
      gr <- groups(cfg)
      (major, degrees) <- gr.leftMajors
      degree <- degrees
    } yield (major, degree, s"School of ${major.split(" ").head}", gr.uid)
    rows.toDF("Major", "Degree", "School", "uid")
  }

  /** The right tables: `School(ID, Univ_name, City, Url)` and
    * `Stats(ID, Program, bach_degr)` (+ uid). The Stats table also carries
    * `NOtherUnivPrograms` rows for other universities (Figure 4's NCES side
    * is 239K rows of which only this university's survive the selection).
    */
  def ncesTables(spark: SparkSession, cfg: Config): (DataFrame, DataFrame) = {
    import spark.implicits._
    val univId = 1L
    val target = groups(cfg).collect {
      case Group(uid, _, Some(program), Some(bach)) => (univId, program, bach, uid)
    }
    val school = Seq(
      (univId, cfg.univName, "Springfield", s"https://${cfg.univName.toLowerCase}.edu"),
      (2L, "Other University", "Elsewhere", "https://other.edu"),
    ).toDF("ID", "Univ_name", "City", "Url")
    val others = spark.range(NOtherUnivPrograms).select(
      lit(2L).as("ID"),
      concat(lit("program "), col("id")).as("Program"),
      (pmod(hash(col("id"), lit(cfg.seed)), lit(5)) + 1).cast("double").as("bach_degr"),
      lit(null).cast("string").as("uid"),
    )
    val stats = target.toDF("ID", "Program", "bach_degr", "uid").union(others)
    (school, stats)
  }

  /** Canonical relation of Q1: `SELECT COUNT(Major) FROM Major`. Degree and
    * School ride along for stage-3 summarization (the paper's
    * `Degree='Associate'` pattern).
    */
  def leftCanonical(spark: SparkSession, cfg: Config): DataFrame = {
    val prov = Provenance.relation(majorTable(spark, cfg), Provenance.Output.Count)
    Canonicalize.canonical(prov, Seq("Major"), extraAttrs = Seq("Degree", "School"))
  }

  /** Provenance of Q2: `SELECT SUM(bach_degr) FROM School, Stats WHERE
    * Univ_name = <univ> AND School.ID = Stats.ID`.
    */
  def rightProvenance(spark: SparkSession, cfg: Config): DataFrame = {
    val (school, stats) = ncesTables(spark, cfg)
    val filtered = school.filter(col("Univ_name") === cfg.univName)
      .join(stats, "ID")
    Provenance.relation(filtered, Provenance.Output.Sum("bach_degr"))
  }

  def rightCanonical(spark: SparkSession, cfg: Config): DataFrame =
    Canonicalize.canonical(rightProvenance(spark, cfg), Seq("Program"))
}
