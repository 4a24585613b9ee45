package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{Canonicalize, Provenance}
import repro.core.Model.Phi
import repro.core.Provenance.Output
import repro.core.Similarity.KeyAttr
import repro.data.ImdbData.Views

/** The paper's 10 IMDb query templates (Section 5.1.1), each implemented
  * over both views and reduced to its canonical relation. Movie-level
  * queries match on `(title, release_year) ≡ (title, release_year)`;
  * person-level queries on `(name, gender, dob) ≡ (name, gender, dob)`
  * (Figure 5; View 1's firstname/lastname are concatenated).
  */
object ImdbQueries {

  /** A template's two canonical relations (`left`, `right`) and the
    * provenance relations they consolidate (`leftProv`, `rightProv`).
    */
  final case class QueryPair(
      name: String,
      left: DataFrame,
      right: DataFrame,
      attrs: Seq[KeyAttr],
      phi: Phi,
      leftProv: DataFrame,
      rightProv: DataFrame,
  )

  val movieAttrs: Seq[KeyAttr] = Seq(KeyAttr("title"), KeyAttr("release_year", numeric = true))
  val personAttrs: Seq[KeyAttr] =
    Seq(KeyAttr("name"), KeyAttr("gender", blocking = false), KeyAttr("dob", numeric = true))

  private val ShortRuntime = 45

  private def personCols1(df: DataFrame): DataFrame =
    df.select(concat_ws(" ", col("firstname"), col("lastname")).as("name"),
      col("gender"), col("dob"), col("uid"))

  private def info(v: Views, tpe: String): DataFrame =
    v.movieInfo2.filter(col("info_type") === tpe)
      .select(col("m_id"), col("info"))

  private def movieCols(df: DataFrame): DataFrame =
    df.select(col("title"), col("release_year"), col("uid"))

  /** Both sides' provenance relations under `out` and their canonical
    * relations.
    */
  private def pair(name: String, l: DataFrame, r: DataFrame, out: Output, attrs: Seq[KeyAttr]): QueryPair = {
    def canon(prov: DataFrame): DataFrame = {
      // Leftover columns (e.g. genre/country) ride along for summarization.
      val extras = prov.columns.toSeq
        .diff(attrs.map(_.name) ++ Seq("I", "uid") ++ out.column.toSeq)
      Canonicalize.canonical(prov, attrs.map(_.name), out.strict, extras)
    }
    val (lp, rp) = (Provenance.relation(l, out), Provenance.relation(r, out))
    QueryPair(name, canon(lp), canon(rp), attrs, Phi.Equiv, lp, rp)
  }

  /** Q1: actors cast in short movies released in ⟨year⟩. View 2 cannot
    * distinguish actors from directors — a schema-driven disagreement.
    */
  def q1(v: Views, year: Int): QueryPair = {
    val l = v.movieActor1
      .join(v.movie1.filter(col("release_year") === year && col("runtimes") < ShortRuntime)
        .select("movie_id"), "movie_id")
      .join(v.actor1, "actor_id")
    val r = v.moviePerson2
      .join(v.movie2.filter(col("release_year") === year).select("m_id"), "m_id")
      .join(info(v, "runtimes").filter(col("info").cast("double") < ShortRuntime).select("m_id"), "m_id")
      .join(v.person2, "p_id")
    pair(s"Q1($year)", personCols1(l), r.select(col("name"), col("gender"), col("dob"), col("uid")),
      Output.NonAggregate, personAttrs)
  }

  /** Q2: movies directed by someone born in ⟨year⟩ (View 2: any linked
    * person born in ⟨year⟩).
    */
  def q2(v: Views, year: Int): QueryPair = {
    val l = v.movieDirector1
      .join(v.director1.filter(col("dob") === year).select("director_id"), "director_id")
      .join(v.movie1, "movie_id")
    val r = v.moviePerson2
      .join(v.person2.filter(col("dob") === year).select("p_id"), "p_id")
      .join(v.movie2, "m_id")
    pair(s"Q2($year)", movieCols(l), movieCols(r), Output.NonAggregate, movieAttrs)
  }

  /** Q3: number of comedy movies released in ⟨year⟩ (View 1 only knows each
    * movie's first genre).
    */
  def q3(v: Views, year: Int): QueryPair = {
    val l = v.movie1.filter(col("release_year") === year && col("genre") === "comedy")
    val r = v.movie2.filter(col("release_year") === year)
      .join(info(v, "genre").filter(col("info") === "comedy").select("m_id"), "m_id")
    pair(s"Q3($year)", movieCols(l), movieCols(r), Output.Count, movieAttrs)
  }

  /** Q4: number of movies released in the US in ⟨year⟩. */
  def q4(v: Views, year: Int): QueryPair = {
    val l = v.movie1.filter(col("release_year") === year && col("country") === "usa")
    val r = v.movie2.filter(col("release_year") === year)
      .join(info(v, "country").filter(col("info") === "usa").select("m_id"), "m_id")
    pair(s"Q4($year)", movieCols(l), movieCols(r), Output.Count, movieAttrs)
  }

  private def grossPair(v: Views, year: Int, out: Output, nm: String): QueryPair = {
    // genre/country ride along on the view-1 side for stage-3 summarization.
    val l = v.movie1.filter(col("release_year") === year)
      .select(col("title"), col("release_year"), col("gross"), col("genre"), col("country"), col("uid"))
    val r = v.movie2.filter(col("release_year") === year)
      .join(info(v, "gross"), "m_id")
      .select(col("title"), col("release_year"), col("info").cast("double").as("gross"), col("uid"))
    pair(nm, l, r, out, movieAttrs)
  }

  /** Q5: total gross value for movies released in ⟨year⟩. */
  def q5(v: Views, year: Int): QueryPair =
    grossPair(v, year, Output.Sum("gross"), s"Q5($year)")

  /** Q6: maximum gross value for movies released in ⟨year⟩ (strict 1-1). */
  def q6(v: Views, year: Int): QueryPair =
    grossPair(v, year, Output.Max("gross"), s"Q6($year)")

  /** Q7: the longest movie released in ⟨year⟩ (strict 1-1). */
  def q7(v: Views, year: Int): QueryPair = runtimePair(v, year, Output.Max("runtimes"), s"Q7($year)")

  /** Q8: average gross value for movies released in ⟨year⟩ (strict 1-1). */
  def q8(v: Views, year: Int): QueryPair =
    grossPair(v, year, Output.Avg("gross"), s"Q8($year)")

  /** Q9: average runtime for movies released in ⟨year⟩ (strict 1-1). */
  def q9(v: Views, year: Int): QueryPair = runtimePair(v, year, Output.Avg("runtimes"), s"Q9($year)")

  private def runtimePair(v: Views, year: Int, out: Output, nm: String): QueryPair = {
    val l = v.movie1.filter(col("release_year") === year)
      .select(col("title"), col("release_year"), col("runtimes"), col("uid"))
    val r = v.movie2.filter(col("release_year") === year)
      .join(info(v, "runtimes"), "m_id")
      .select(col("title"), col("release_year"), col("info").cast("double").as("runtimes"), col("uid"))
    pair(nm, l, r, out, movieAttrs)
  }

  /** Q10: actresses who have not starred in any ⟨genre⟩ movies (View 2
    * cannot restrict to actresses — female directors slip in).
    */
  def q10(v: Views, genre: String): QueryPair = {
    val genreMovies1 = v.movie1.filter(col("genre") === genre).select("movie_id")
    val l = v.actor1.filter(col("gender") === "F")
      .join(v.movieActor1.join(genreMovies1, "movie_id").select("actor_id"),
        Seq("actor_id"), "left_anti")
    val genreMovies2 = v.movie2
      .join(info(v, "genre").filter(col("info") === genre).select("m_id"), "m_id")
      .select("m_id")
    val r = v.person2.filter(col("gender") === "F")
      .join(v.moviePerson2.join(genreMovies2, "m_id").select("p_id"),
        Seq("p_id"), "left_anti")
    pair(s"Q10($genre)", personCols1(l), r.select(col("name"), col("gender"), col("dob"), col("uid")),
      Output.NonAggregate, personAttrs)
  }

  /** All 10 templates at one instantiation parameter. */
  def all(v: Views, year: Int, genre: String): Seq[QueryPair] = Seq(
    q1(v, year), q2(v, year), q3(v, year), q4(v, year), q5(v, year),
    q6(v, year), q7(v, year), q8(v, year), q9(v, year), q10(v, genre),
  )
}
