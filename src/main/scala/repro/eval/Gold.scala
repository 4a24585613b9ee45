package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Model.{Params, Phi}

/** Gold-standard derivation, mirroring the paper's methodology: the
  * synthetic generators thread a hidden true-entity identifier (`uid`)
  * through both views, so the optimal evidence mapping and the optimal
  * explanations are derivable exactly ("the optimal evidence mapping can be
  * easily acquired through the mapping between the views and the original
  * dataset", Section 5.1.1).
  *
  * Rules, per uid group over the two canonical relations:
  *  - uid present on one side only (or null): each such tuple is a gold
  *    provenance-based explanation on its side;
  *  - uid present on both sides with unequal summed impacts: a gold
  *    value-based explanation on the hub side (the side not capped by φ);
  *  - all cross pairs within a both-sides uid group are gold evidence.
  */
object Gold {

  /** (kind, side, key): kind ∈ {"prov", "value"}. */
  type Item = (String, Int, String)

  final case class GoldStandard(
      explanations: Set[Item],
      evidence: Set[(String, String)],
  )

  /** Key expression: matching attribute values joined with '|'. */
  def keyExpr(matchAttrs: Seq[String]) =
    concat_ws("|", matchAttrs.map(a => coalesce(col(a).cast("string"), lit(""))): _*)

  def derive(
      leftCanon: DataFrame,
      rightCanon: DataFrame,
      matchAttrs: Seq[String],
      phi: Phi,
  ): GoldStandard = {
    val l = leftCanon.select(keyExpr(matchAttrs).as("key"), col("I").cast("double").as("I"), col("uid"))
    val r = rightCanon.select(keyExpr(matchAttrs).as("key"), col("I").cast("double").as("I"), col("uid"))

    // The null uid is a group of its own on each side. The equi-join never
    // matches null, so both null groups come back one-sided: tuples with no
    // uid at all can never correspond and become provenance-based items.
    val lGrouped = l.groupBy("uid").agg(collect_list("key").as("lKeys"), sum("I").as("lSum"))
    val rGrouped = r.groupBy("uid").agg(collect_list("key").as("rKeys"), sum("I").as("rSum"))
    val joined = lGrouped.join(rGrouped, Seq("uid"), "full_outer")
      .select("uid", "lKeys", "rKeys", "lSum", "rSum")
      .collect()

    val expl = Set.newBuilder[Item]
    val ev = Set.newBuilder[(String, String)]

    joined.foreach { row =>
      val lKeys = Option(row.getAs[scala.collection.Seq[String]]("lKeys")).map(_.toSeq).getOrElse(Seq.empty)
      val rKeys = Option(row.getAs[scala.collection.Seq[String]]("rKeys")).map(_.toSeq).getOrElse(Seq.empty)
      (lKeys.nonEmpty, rKeys.nonEmpty) match {
        case (true, false) => lKeys.foreach(k => expl += (("prov", 1, k)))
        case (false, true) => rKeys.foreach(k => expl += (("prov", 2, k)))
        case (true, true)  =>
          for (lk <- lKeys; rk <- rKeys) ev += ((lk, rk))
          val lSum = row.getAs[Double]("lSum")
          val rSum = row.getAs[Double]("rSum")
          if (Params.unbalanced(lSum, rSum)) {
            val key = if (phi.hubSide == 1) lKeys.head else rKeys.head
            expl += (("value", phi.hubSide, key))
          }
        case _ => ()
      }
    }
    GoldStandard(expl.result(), ev.result())
  }
}
