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

    val l = left
      .select(col("cid").as("l_cid") +: attrs.map(a => col(a.name).as(s"l_${a.name}")): _*)
    val r = right
      .select(col("cid").as("r_cid") +: attrs.map(a => col(a.name).as(s"r_${a.name}")): _*)

    val joined = pairs
      .join(l, pairs("lid") === l("l_cid"))
      .join(r, pairs("rid") === r("r_cid"))

    val sims = attrs.map { a =>
      if (a.numeric) {
        val d = col(s"l_${a.name}").cast("double") - col(s"r_${a.name}").cast("double")
        lit(1.0) / (lit(1.0) + d * d)
      } else {
        val lt = tokensOf(s"l_${a.name}")
        val rt = tokensOf(s"r_${a.name}")
        val inter = size(array_intersect(lt, rt)).cast("double")
        val uni   = size(array_union(lt, rt)).cast("double")
        when(uni > 0, inter / uni).otherwise(lit(0.0))
      }
    }
    val simExpr = sims.reduce(_ + _) / lit(attrs.size.toDouble)
    joined.select(col("lid"), col("rid"), simExpr.as("sim"))
  }
}
