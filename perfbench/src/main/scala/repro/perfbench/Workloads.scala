package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Model.Phi
import repro.core.Similarity.KeyAttr
import repro.data.{ImdbData, ImdbQueries, SyntheticGen}

/** One comparable query pair: the two canonical relations and the attribute
  * match between them. The relations are lazy Spark plans, so defining a
  * pair runs no job; stage 1 materializes them.
  */
final case class PairInput(name: String, left: DataFrame, right: DataFrame, attrs: Seq[KeyAttr], phi: Phi)

/** A benchmark workload: a named set of query pairs built from a generator
  * seed. Pairs run one after another (a closed loop with one client).
  */
final case class Workload(name: String, defaultSeed: Long, define: (SparkSession, Long) => Seq[PairInput])

object Workloads {

  /** Scaled so that a run, set-up included, fits the benchmark's time
    * budget: every pair pays a fixed Spark cost of about four seconds in
    * stage 1 (query planning and dozens of small jobs), whatever its size.
    */
  val all: Seq[Workload] = Seq(
    // §5.3 generator on Fig. 8a's axis (d=0.2, v=1000): one giant candidate
    // component, so NOOPT's search, BATCH-100's partitioner and the
    // similarity join do the most work of any workload.
    Workload("synth-n2000", 7L, (spark, seed) => {
      val cfg = SyntheticGen.Config(n = 2000, d = 0.2, v = 1000, seed = seed)
      Seq(PairInput("synth(n=2000)",
        SyntheticGen.canonicalSide(spark, cfg, 1),
        SyntheticGen.canonicalSide(spark, cfg, 2),
        Seq(KeyAttr("match_attr")), Phi.Equiv))
    }),
    // IMDb template Q10 over multi-way view joins (anti-joins across both
    // views): stage 1 is nearly all fixed Spark cost, and NOOPT's search
    // hits the node budget and is reported unproved, a failed solve, while
    // BATCH-100 proves its partitions.
    Workload("imdb-q10", 31L, (spark, seed) => {
      val views = ImdbData.views(spark, ImdbData.Config(movies = 3000, actors = 3000, directors = 800, seed = seed))
      val q = ImdbQueries.q10(views, "comedy")
      Seq(PairInput(q.name, q.left, q.right, q.attrs, q.phi))
    }),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
