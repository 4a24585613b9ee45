package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic substitute for the paper's IMDb datasets (Section 5.1.1).
  *
  * A deterministic base catalogue (movies with multi-valued genres/countries,
  * persons, cast/direction links) is projected into the paper's two view
  * schemas:
  *
  *  - View 1: `Movie(movie_id, title, release_year, genre, country,
  *    runtimes, gross, budget)`, `Actor`, `Director`, `MovieActor`,
  *    `MovieDirector` — the migration keeps ONE genre and country per movie
  *    (the paper's lossy schema design), and actors/directors are separate;
  *  - View 2: `Movie(m_id, title, release_year)`, `MovieInfo(m_id,
  *    info_type, info)`, `Person(p_id, name, gender, dob)`,
  *    `MoviePerson(m_id, p_id)` — full multi-valued info, but person roles
  *    are not distinguishable.
  *
  * ~5% numeric corruptions and ~2% row/link drops are injected per view
  * with [[Bart]] (different seeds per view so the views disagree); `uid`
  * columns thread the true movie/person identity for gold derivation.
  * Scaled down from the paper's 3.7M/6.8M tuples to a configurable movie
  * count (see DESIGN.md substitutions).
  */
object ImdbData {

  final case class Config(
      movies: Int = 2000,
      actors: Int = 2400,
      directors: Int = 600,
      seed: Long = 31,
  ) {
    def persons: Int = actors + directors
  }

  /** Title vocabulary size, and the per-view corruption and drop rates. */
  private val TitleVocab = 400
  private val CorruptRate = 0.05
  private val DropRate = 0.02

  val genreNames: Seq[String] = Seq("action", "comedy", "drama", "horror", "scifi",
    "romance", "thriller", "documentary", "animation", "crime", "fantasy", "western")
  val countryNames: Seq[String] = "usa" +: (1 to 19).map(i => s"country$i")

  final case class Views(
      // View 1
      movie1: DataFrame, actor1: DataFrame, director1: DataFrame,
      movieActor1: DataFrame, movieDirector1: DataFrame,
      // View 2
      movie2: DataFrame, movieInfo2: DataFrame, person2: DataFrame, moviePerson2: DataFrame,
  )

  /** Base movies: id, title, year, genres (array), countries (array),
    * runtimes, gross, budget, uid.
    *
    * ~25% of movies are "sequels": they share their first two title tokens
    * (and often the release year) with the previous movie. Sequel families
    * put false candidate pairs into the same similarity bucket as
    * typo-corrupted true pairs, which is what keeps threshold-style linkage
    * from being trivially perfect on this data.
    */
  def baseMovies(spark: SparkSession, cfg: Config): DataFrame = {
    val id = col("id")
    def h(s: Long) = hash(id, lit(cfg.seed + s))
    def titleWord(idc: org.apache.spark.sql.Column, k: Int) =
      concat(lit("t"), pmod(hash(idc * 17 + lit(k), lit(cfg.seed)), lit(TitleVocab)))
    val isSequel = pmod(h(70), lit(4)) === 0 && id > 0
    val base = when(isSequel, id - 1).otherwise(id)
    val titleWords = Seq(titleWord(base, 0), titleWord(base, 1), titleWord(id, 2))
    val yearKey = when(isSequel && pmod(h(71), lit(2)) === 0, id - 1).otherwise(id)
    val genreArr = array_distinct(array(
      (0 until 3).map { k =>
        when(lit(k) === 0 || pmod(h(40 + k), lit(3)) === 0,
          element_at(array(genreNames.map(lit): _*), pmod(h(50 + k), lit(genreNames.size)) + 1))
          .otherwise(lit(null).cast("string"))
      }: _*
    ))
    val countryArr = array_distinct(array(
      when(pmod(h(60), lit(10)) < 4, lit("usa"))
        .otherwise(element_at(array(countryNames.map(lit): _*), pmod(h(61), lit(countryNames.size)) + 1)),
      when(pmod(h(62), lit(4)) === 0,
        element_at(array(countryNames.map(lit): _*), pmod(h(63), lit(countryNames.size)) + 1))
        .otherwise(lit(null).cast("string")),
    ))
    spark.range(cfg.movies).select(
      id.as("movie_id"),
      concat_ws(" ", titleWords: _*).as("title"),
      (lit(1970) + pmod(hash(yearKey, lit(cfg.seed + 1)), lit(34))).cast("int").as("release_year"),
      filter(genreArr, x => x.isNotNull).as("genres"),
      filter(countryArr, x => x.isNotNull).as("countries"),
      (lit(25) + pmod(h(2), lit(150))).cast("double").as("runtimes"),
      ((pmod(h(3), lit(9000)) + 1000) * 10000).cast("double").as("gross"),
      ((pmod(h(4), lit(5000)) + 500) * 10000).cast("double").as("budget"),
      concat(lit("m"), id).as("uid"),
    )
  }

  /** Base persons: p_id, firstname, lastname, gender, dob, isActor, uid.
    *
    * ~20% are "siblings" of the previous person: same lastname and birth
    * year, different first name — the person-side analogue of the movie
    * sequel families.
    */
  def basePersons(spark: SparkSession, cfg: Config): DataFrame = {
    val id = col("id")
    def h(s: Long) = hash(id, lit(cfg.seed + 100 + s))
    val isSib = pmod(h(7), lit(5)) === 0 && id > 0
    val fam = when(isSib, id - 1).otherwise(id)
    spark.range(cfg.persons).select(
      id.as("p_id"),
      concat(lit("fn"), pmod(h(1), lit(150))).as("firstname"),
      concat(lit("ln"), pmod(hash(fam, lit(cfg.seed + 102)), lit(250))).as("lastname"),
      when(pmod(h(3), lit(2)) === 0, lit("F")).otherwise(lit("M")).as("gender"),
      // dob spans 1920–2003 so every ⟨year⟩ ∈ [1970, 2003] instantiation of
      // Q2 ("directed by someone born in ⟨year⟩") is non-empty.
      (lit(1920) + pmod(hash(fam, lit(cfg.seed + 104)), lit(84))).cast("int").as("dob"),
      (id < cfg.actors).as("isActor"),
      concat(lit("p"), id).as("uid"),
    )
  }

  /** Cast links: each movie gets 3 actors and 1 director. */
  def baseLinks(spark: SparkSession, cfg: Config): (DataFrame, DataFrame) = {
    val id = col("id")
    def h(s: Long) = hash(id, lit(cfg.seed + 200 + s))
    val acts = (0 until 3).map { k =>
      spark.range(cfg.movies).select(
        id.as("movie_id"),
        pmod(hash(id * 13 + lit(k), lit(cfg.seed + 210)), lit(cfg.actors)).cast("long").as("p_id"),
      )
    }.reduce(_ union _).distinct()
    val dirs = spark.range(cfg.movies).select(
      id.as("movie_id"),
      (lit(cfg.actors) + pmod(h(5), lit(cfg.directors))).cast("long").as("p_id"),
    )
    (acts, dirs)
  }

  /** Both views with injected errors, defined over a stored base catalogue.
    *
    * The four base tables (movies, persons, the actor links after their
    * `distinct`, the director links) are generated here, once, and stored
    * with an eager local checkpoint; the nine views are projections over the
    * stored rows. So a query over the views plans and compiles only its own
    * operators, as over a table in a DBMS, and is not rerun or evicted by
    * `spark.catalog.clearCache()`. Over the lazy generator plans, Q10's two
    * canonical relations compiled 102 generated classes (sort-merge joins,
    * 2 shuffle partitions), more than the 100 that Spark's codegen cache
    * holds, so every later pair recompiled about half of them; over the
    * stored tables they compile 69, and a later pair compiles none.
    * Local-checkpoint blocks live in the executors' block managers and are
    * lost with an executor; in local mode, which this project runs, the
    * executor is the driver itself.
    */
  def views(spark: SparkSession, cfg: Config): Views = {
    def stored(df: DataFrame): DataFrame = df.localCheckpoint(eager = true)
    val movies = stored(baseMovies(spark, cfg))
    val persons = stored(basePersons(spark, cfg))
    val (acts, dirs) = baseLinks(spark, cfg)
    val (ma, md) = (stored(acts), stored(dirs))

    // ---- View 1: one genre/country per movie; 5% numeric corruption.
    // Title typo (BART-style text error): mutates the last token, so the
    // corrupted title keeps 2 of 3 tokens — the same similarity bucket the
    // sequel families occupy.
    val typoTitle = when(Bart.flag(col("movie_id"), cfg.seed + 305, CorruptRate),
      concat(col("title"), lit("x"))).otherwise(col("title"))
    val movie1 = movies
      .filter(!Bart.dropped(col("movie_id"), cfg.seed + 301, DropRate))
      .select(
        col("movie_id"), typoTitle.as("title"), col("release_year"),
        element_at(col("genres"), 1).as("genre"),
        element_at(col("countries"), 1).as("country"),
        Bart.corruptNumeric(col("runtimes"), col("movie_id"), cfg.seed + 302, CorruptRate, 10.0).as("runtimes"),
        Bart.corruptNumeric(col("gross"), col("movie_id"), cfg.seed + 303, CorruptRate, 1.0e6).as("gross"),
        col("budget"), col("uid"),
      )
    val actor1 = persons.filter(col("isActor"))
      .select(col("p_id").as("actor_id"), col("firstname"), col("lastname"), col("gender"), col("dob"), col("uid"))
    val director1 = persons.filter(!col("isActor"))
      .select(col("p_id").as("director_id"), col("firstname"), col("lastname"), col("gender"), col("dob"), col("uid"))
    val movieActor1 = ma.filter(!Bart.dropped(hash(col("movie_id"), col("p_id")), cfg.seed + 304, DropRate))
      .withColumnRenamed("p_id", "actor_id")
    val movieDirector1 = md.withColumnRenamed("p_id", "director_id")

    // ---- View 2: full info as (m_id, info_type, info) rows; independent errors.
    val movie2 = movies
      .filter(!Bart.dropped(col("movie_id"), cfg.seed + 401, DropRate / 2))
      .select(col("movie_id").as("m_id"), col("title"), col("release_year"), col("uid"))
    def infoRows(tpe: String, valueCol: org.apache.spark.sql.Column) =
      movies.select(col("movie_id").as("m_id"), lit(tpe).as("info_type"), valueCol.cast("string").as("info"))
    val genreInfo = movies.select(col("movie_id").as("m_id"), lit("genre").as("info_type"),
      explode(col("genres")).as("g")).select(col("m_id"), col("info_type"), col("g").cast("string").as("info"))
    val countryInfo = movies.select(col("movie_id").as("m_id"), lit("country").as("info_type"),
      explode(col("countries")).as("c")).select(col("m_id"), col("info_type"), col("c").cast("string").as("info"))
    val movieInfo2 = Seq(
      genreInfo,
      countryInfo,
      infoRows("runtimes", Bart.corruptNumeric(col("runtimes"), col("movie_id"), cfg.seed + 402, CorruptRate, 10.0)),
      infoRows("gross", Bart.corruptNumeric(col("gross"), col("movie_id"), cfg.seed + 403, CorruptRate, 1.0e6)),
      infoRows("budget", col("budget")),
    ).reduce(_ unionByName _)
      .filter(!Bart.dropped(hash(col("m_id"), col("info_type")), cfg.seed + 404, DropRate))
    // Lastname typo on view 2's Person (the cross-view name errors BART
    // injects in the paper's setup).
    val name2 = concat_ws(" ", col("firstname"),
      when(Bart.flag(col("p_id"), cfg.seed + 406, CorruptRate),
        concat(col("lastname"), lit("x"))).otherwise(col("lastname")))
    val person2 = persons.select(
      col("p_id"),
      name2.as("name"),
      col("gender"), col("dob"), col("uid"),
    )
    val moviePerson2 = ma.union(md)
      .filter(!Bart.dropped(hash(col("movie_id"), col("p_id")), cfg.seed + 405, DropRate))
      .select(col("movie_id").as("m_id"), col("p_id"))

    Views(movie1, actor1, director1, movieActor1, movieDirector1,
      movie2, movieInfo2, person2, moviePerson2)
  }
}
