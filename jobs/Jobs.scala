package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.{ImdbData, SyntheticGen}
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
    (Experiments.academicStats(spark) ++ Experiments.imdbStats(spark)).foreach(println)
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
    val sweeps = Seq(
      "n (d=0.2, v=1000)" -> Seq(100, 300, 1000, 3000, 10000).map(n => SyntheticGen.Config(n = n)),
      "d (n=1000, v=1000)" -> Seq(0.1, 0.2, 0.3, 0.4, 0.5).map(d => SyntheticGen.Config(n = 1000, d = d)),
      "v (n=1000, d=0.2)" -> Seq(100, 300, 1000, 3000, 10000).map(v => SyntheticGen.Config(n = 1000, v = v)))
    for ((axis, cfgs) <- sweeps) {
      println(s"--- sweep $axis ---")
      cfgs.foreach(c => println(Experiments.render(Experiments.syntheticPoint(spark, c)) + "\n"))
    }
    spark.stop()
  }
}
