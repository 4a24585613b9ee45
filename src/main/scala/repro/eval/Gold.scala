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
  *    value-based explanation on the hub side (the side not capped by φ),
  *    naming the hub side's first key in the given order;
  *  - all cross pairs within a both-sides uid group are gold evidence.
  */
object Gold {

  /** (kind, side, key): kind ∈ {"prov", "value"}. */
  type Item = (String, Int, String)

  final case class GoldStandard(
      explanations: Set[Item],
      evidence: Set[(String, String)],
  )

  /** One canonical tuple as gold derivation sees it: its key (matching
    * attribute values joined with '|'), its impact and its uid, or null.
    */
  final case class Entry(key: String, impact: Double, uid: String)

  /** Derives the gold standard from each side's tuples, in the given order. */
  def derive(left: Seq[Entry], right: Seq[Entry], phi: Phi): GoldStandard = {
    // A null uid never corresponds: such tuples stay out of the groups and
    // become provenance-based items.
    def groups(es: Seq[Entry]) = es.filter(_.uid != null).groupBy(_.uid)
    val l = groups(left)
    val r = groups(right)
    val expl = Set.newBuilder[Item]
    val ev = Set.newBuilder[(String, String)]
    left.foreach(e => if (e.uid == null || !r.contains(e.uid)) expl += (("prov", 1, e.key)))
    right.foreach(e => if (e.uid == null || !l.contains(e.uid)) expl += (("prov", 2, e.key)))
    for ((uid, ls) <- l; rs <- r.get(uid)) {
      for (a <- ls; b <- rs) ev += ((a.key, b.key))
      if (Params.unbalanced(ls.map(_.impact).sum, rs.map(_.impact).sum)) {
        val hub = if (phi.hubSide == 1) ls else rs
        expl += (("value", phi.hubSide, hub.head.key))
      }
    }
    GoldStandard(expl.result(), ev.result())
  }

  /** [[derive]] over two canonical relations with `I` and `uid` columns,
    * each collected in its row order.
    */
  def derive(
      leftCanon: DataFrame,
      rightCanon: DataFrame,
      matchAttrs: Seq[String],
      phi: Phi,
  ): GoldStandard = {
    val key = concat_ws("|", matchAttrs.map(a => coalesce(col(a).cast("string"), lit(""))): _*)
    def entries(df: DataFrame) =
      df.select(key, col("I").cast("double"), col("uid").cast("string")).collect().toSeq
        .map(r => Entry(r.getString(0), r.getDouble(1), r.getString(2)))
    derive(entries(leftCanon), entries(rightCanon), phi)
  }
}
