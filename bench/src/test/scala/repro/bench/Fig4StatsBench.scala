package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Figure 4 (the evaluation section's dataset-statistics table): N, |P|,
  * |T|, |M_tuple|, |M*_tuple| and |E| → |E_S| per dataset pair.
  *
  * Paper values (Academic): UMass 113/113/95 vs NCES 81, |M|=169, |M*|=71,
  * |E|=64→11; OSU 282/282/206 vs NCES 153, |M|=607, |M*|=140, |E|=127→16.
  * IMDb values are at the paper's full 3.7M/6.8M-tuple scale; ours are at
  * the scaled-down generator (see DESIGN.md), so |P|/|M| are proportionally
  * smaller — the table below records our measured analogues.
  */
class Fig4StatsBench extends SparkSpec {

  test("Figure 4: academic dataset statistics") {
    println("=== Figure 4 (Academic) — paper: UMass |T|=95/81 |M*|=71 |E|=64->11; OSU |T|=206/153 |M*|=140 |E|=127->16")
    for (row <- Experiments.academicStats(spark)) {
      println(row)
      assert(row.contains("|M*|"), "stats row rendered")
    }
  }

  test("Figure 4: IMDb dataset statistics (scaled)") {
    println("=== Figure 4 (IMDb, scaled generator) ===")
    Experiments.imdbStats(spark).foreach(println)
  }
}
