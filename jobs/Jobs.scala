package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.ExplainSolver
import repro.data.{ImdbData, ImdbQueries, SyntheticGen}
import repro.eval.Experiments

/** Spark-submit entrypoints, one per evaluation artifact. Each builds its
  * own local session when none is provided by spark-submit.
  */
object Jobs {
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Figure 4 + Figure 5: dataset statistics and attribute matches. */
object DatasetStats {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("explain3d-stats")
    println("=== Figure 5: attribute matches ===")
    println("UMass vs NCES : (Major.Major) ⊑ (Stats.Program)")
    println("OSU vs NCES   : (Major.Major) ⊑ (Stats.Program)")
    println("IMDb          : (title, release_year) ≡ (title, release_year)")
    println("              : (firstname+lastname, gender, dob) ≡ (name, gender, dob)")
    println("\n=== Figure 4: dataset statistics ===")
    Experiments.academicStats(spark).foreach(println)
    val v = ImdbData.views(spark, ImdbData.Config(movies = 2000, actors = 2400, directors = 600))
    for (q <- ImdbQueries.all(v, year = 1990, genre = "comedy")) {
      println(Experiments.statsRow(q.name, q.left, q.right, q.attrs, q.phi,
        q.left.count(), q.right.count()))
    }
    spark.stop()
  }
}

/** Figure 6: accuracy and efficiency on the Academic pairs. */
object AcademicEval {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("explain3d-academic")
    Experiments.academic(spark).foreach(r => println(Experiments.render(r) + "\n"))
    spark.stop()
  }
}

/** Figure 7: accuracy and efficiency on the IMDb templates. */
object ImdbEval {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("explain3d-imdb")
    val movies = args.headOption.map(_.toInt).getOrElse(4000)
    val cfg = ImdbData.Config(movies = movies, actors = movies, directors = movies / 4)
    val years = Seq(1985, 1994, 2001)
    val genres = Seq("comedy", "drama", "action")
    Experiments.imdb(spark, cfg, years, genres).foreach(r => println(Experiments.render(r) + "\n"))
    spark.stop()
  }
}

/** Figure 8: smart-partitioning efficiency sweeps on synthetic data. */
object SyntheticEval {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("explain3d-synthetic")
    val solverCfg = ExplainSolver.Config(timeLimitMs = 120000)
    val batches = Seq(100, 1000)
    println("--- sweep n (d=0.2, v=1000) ---")
    for (n <- Seq(100, 300, 1000, 3000, 10000))
      println(Experiments.renderSynthetic(
        Experiments.syntheticPoint(spark, SyntheticGen.Config(n = n), batches, solverCfg)))
    println("--- sweep d (n=1000, v=1000) ---")
    for (d <- Seq(0.1, 0.2, 0.3, 0.4, 0.5))
      println(Experiments.renderSynthetic(
        Experiments.syntheticPoint(spark, SyntheticGen.Config(n = 1000, d = d), batches, solverCfg)))
    println("--- sweep v (n=1000, d=0.2) ---")
    for (v <- Seq(100, 300, 1000, 3000, 10000))
      println(Experiments.renderSynthetic(
        Experiments.syntheticPoint(spark, SyntheticGen.Config(n = 1000, v = v), batches, solverCfg)))
    spark.stop()
  }
}
