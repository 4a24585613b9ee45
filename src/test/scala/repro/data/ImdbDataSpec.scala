package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.Range
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class ImdbDataSpec extends SparkSpec {

  private lazy val cfg = ImdbData.Config(movies = 600, actors = 700, directors = 200)
  private lazy val v = ImdbData.views(spark, cfg)

  test("base movies are deterministic with valid years and multi-genres") {
    val m = ImdbData.baseMovies(spark, cfg)
    assert(m.count() == 600)
    assert(m.filter(col("release_year") < 1970 || col("release_year") > 2003).count() == 0)
    assert(m.filter(size(col("genres")) < 1).count() == 0)
    assert(m.filter(size(col("genres")) > 1).count() > 0, "some movies have several genres")
  }

  test("view 1 keeps a single genre per movie; view 2 keeps them all") {
    val v1Genres = v.movie1.select("genre").distinct().count()
    assert(v1Genres <= ImdbData.genreNames.size)
    val info = v.movieInfo2.filter(col("info_type") === "genre")
    assert(info.count() > v.movie1.count(), "view 2 has more genre facts than view 1")
  }

  test("views drop ~2% of movie rows") {
    val n1 = v.movie1.count()
    assert(n1 < 600 && n1 > 560)
  }

  test("~5% of gross values disagree across views (BART-style errors)") {
    val g2 = v.movieInfo2.filter(col("info_type") === "gross")
      .select(col("m_id").as("movie_id"), col("info").cast("double").as("g2"))
    val joined = v.movie1.select(col("movie_id"), col("gross")).join(g2, "movie_id")
    val n = joined.count()
    val differing = joined.filter(col("gross") =!= col("g2")).count()
    assert(differing > 0.02 * n && differing < 0.25 * n, s"$differing of $n differ")
  }

  test("person roles are split in view 1 and merged in view 2") {
    assert(v.actor1.count() == cfg.actors)
    assert(v.director1.count() == cfg.directors)
    assert(v.person2.count() == cfg.persons)
  }

  test("Q3-style comedy count matches DuckDB on view 2 (oracle)") {
    val year = 1995
    val movies = v.movie2.filter(col("release_year") === year).select("m_id", "title")
    val genres = v.movieInfo2.filter(col("info_type") === "genre" && col("info") === "comedy")
      .select("m_id")
    val got = movies.join(genres, "m_id").agg(count(lit(1)).cast("long").as("n"))
    Oracle.assertEquivalent(got,
      "SELECT CAST(COUNT(*) AS BIGINT) AS n FROM movies m, genres g WHERE m.m_id = g.m_id",
      "movies" -> movies, "genres" -> genres)
  }

  test("Q5-style gross sum matches DuckDB on view 1 (oracle)") {
    val year = 1988
    val m = v.movie1.filter(col("release_year") === year)
    val got = m.agg(coalesce(sum("gross"), lit(0.0)).cast("double").as("total"))
    Oracle.assertEquivalent(got,
      "SELECT CAST(COALESCE(SUM(CAST(gross AS DOUBLE)), 0) AS DOUBLE) AS total FROM m",
      "m" -> m.select("movie_id", "gross"))
  }

  test("views query the stored catalogue, whatever the Spark cache holds") {
    val views = v.productElementNames.zip(v.productIterator.collect { case df: DataFrame => df }).toSeq
    assert(views.size == 9)
    def rows = views.map { case (_, df) => df.collect().map(_.toString).sorted.toSeq }
    val before = rows
    spark.catalog.clearCache()
    assert(rows == before)
    for ((name, df) <- views)
      assert(df.queryExecution.logical.find(_.isInstanceOf[Range]).isEmpty, s"$name plans a generator")
  }

  test("uid threads through both views for movies and persons") {
    assert(v.movie1.filter(col("uid").isNull).count() == 0)
    assert(v.movie2.filter(col("uid").isNull).count() == 0)
    assert(v.person2.filter(col("uid").isNull).count() == 0)
  }
}
