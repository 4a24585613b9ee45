package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Initial tuple-match candidate generation (Section 5.1.2) as a distributed
  * set-similarity join.
  *
  * Candidate pairs are produced with a token inverted index: every text
  * matching-attribute value is tokenized, tokens are exploded and
  * equi-joined across the two canonical relations, so only pairs sharing at
  * least one token are scored (pairs with zero token overlap have Jaccard 0
  * and are not matches). Scoring follows the paper: token-wise Jaccard for
  * string attributes, `1/(1+(a−b)²)` for numeric attributes, averaged over
  * the matching attributes.
  *
  * Each tuple is tokenized once, before the join: the relations joined to
  * the pairs carry every text attribute's distinct-token array and every
  * numeric attribute as a double, so scoring a pair is one set
  * intersection, `|A∩B| / (|A|+|B|−|A∩B|)`.
  */
object Similarity {

  /** A matching attribute: `numeric` switches the similarity measure;
    * `blocking = false` keeps a (text) attribute out of the candidate
    * inverted index — low-cardinality attributes like gender would otherwise
    * make every value-sharing pair a candidate — while still contributing to
    * the similarity score.
    */
  final case class KeyAttr(name: String, numeric: Boolean = false, blocking: Boolean = true)

  private def tokensOf(c: String) =
    array_distinct(split(lower(trim(col(c))), "\\s+"))

  /** Computes candidate pairs with their combined similarity.
    *
    * @param left  canonical relation with a `cid` column
    * @param right canonical relation with a `cid` column
    * @param attrs matching attributes present in both inputs
    * @return DataFrame(lid, rid, sim) — one row per candidate pair
    */
  def candidatePairs(left: DataFrame, right: DataFrame, attrs: Seq[KeyAttr]): DataFrame = {
    require(attrs.exists(a => !a.numeric && a.blocking),
      "need at least one blocking text attribute for the inverted index")
    val textAttrs = attrs.filter(a => !a.numeric && a.blocking)

    def tokenIndex(df: DataFrame, idAs: String): DataFrame =
      textAttrs
        .map(a => df.select(col("cid").as(idAs), explode(tokensOf(a.name)).as("token")))
        .reduce(_ union _)
        .distinct()

    val pairs = tokenIndex(left, "lid")
      .join(tokenIndex(right, "rid"), "token")
      .select("lid", "rid")
      .distinct()

    // A null text value becomes the empty token array, so the sizes below
    // are never null and it scores 0 against anything.
    def perTuple(df: DataFrame, side: String): DataFrame =
      df.select(col("cid").as(s"${side}_cid") +: attrs.map { a =>
        val v =
          if (a.numeric) col(a.name).cast("double")
          else coalesce(tokensOf(a.name), array().cast("array<string>"))
        v.as(s"${side}_${a.name}")
      }: _*)
    val l = perTuple(left, "l")
    val r = perTuple(right, "r")

    val joined = pairs
      .join(l, pairs("lid") === l("l_cid"))
      .join(r, pairs("rid") === r("r_cid"))

    // |A∩B| and |A|+|B| get a projection of their own: the score uses each
    // more than once, and Spark would evaluate the intersection each time.
    val overlaps = joined.select(col("lid") +: col("rid") +: attrs.flatMap { a =>
      val (lv, rv) = (col(s"l_${a.name}"), col(s"r_${a.name}"))
      if (a.numeric) Seq(lv, rv)
      else Seq(size(array_intersect(lv, rv)).as(s"i_${a.name}"), (size(lv) + size(rv)).as(s"n_${a.name}"))
    }: _*)

    val sims = attrs.map { a =>
      if (a.numeric) {
        val d = col(s"l_${a.name}") - col(s"r_${a.name}")
        lit(1.0) / (lit(1.0) + d * d)
      } else {
        // Both arrays are distinct, so this is |A ∪ B|.
        val inter = col(s"i_${a.name}")
        val uni   = col(s"n_${a.name}") - inter
        when(uni > 0, inter.cast("double") / uni.cast("double")).otherwise(lit(0.0))
      }
    }
    val simExpr = sims.reduce(_ + _) / lit(attrs.size.toDouble)
    overlaps.select(col("lid"), col("rid"), simExpr.as("sim"))
  }
}
