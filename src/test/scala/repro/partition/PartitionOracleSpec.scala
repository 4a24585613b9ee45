package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._
import repro.core.PinnedInstances
import scala.collection.mutable

/** The array-based pre-partition and partitioner against the map-based
  * ones they replaced ([[MapPrePartition]], [[MapPartitioner]]): the same
  * coarse graphs and the same part for every node, including every tie.
  */
class PartitionOracleSpec extends AnyFunSuite {

  test("HashOrder follows a real mutable.HashMap through puts, updates and removes") {
    val rnd = new scala.util.Random(11)
    for (trace <- 0 until 300) {
      val m = mutable.HashMap.empty[Int, Double]
      var cap = HashOrder.InitialCapacity
      // Small keys, and keys whose hash mixes in bits above 16.
      val keyRange = if (trace % 2 == 0) 200 else 1 << 22
      for (_ <- 0 until 1 + rnd.nextInt(400)) {
        if (m.nonEmpty && rnd.nextInt(4) == 0) m.remove(m.keysIterator.drop(rnd.nextInt(m.size)).next())
        else {
          val k =
            if (m.nonEmpty && rnd.nextBoolean()) m.keysIterator.drop(rnd.nextInt(m.size)).next()
            else rnd.nextInt(keyRange)
          cap = HashOrder.grow(cap, m.size)
          m(k) = m.getOrElse(k, 0.0) + 1
        }
        assert(m.keysIterator.toSeq == m.keys.toSeq.sortBy(HashOrder.key(_, cap)), s"trace $trace")
      }
    }
  }

  test("HashOrder.capacityAfterInserts matches the doublings of a real map") {
    for (n <- Seq(0, 1, 11, 12, 13, 23, 24, 25, 47, 48, 49, 200, 1000)) {
      val m = mutable.HashMap.empty[Int, Double]
      (0 until n).foreach(k => m(k * 7919) = 1.0)
      val cap = HashOrder.capacityAfterInserts(n)
      assert(m.keysIterator.toSeq == m.keys.toSeq.sortBy(HashOrder.key(_, cap)), s"n=$n")
    }
  }

  /** A random coarse graph with integer weights in 1..maxW, as both the
    * array-based and the oracle's graph. `deg` is the mean degree.
    */
  private def randomGraph(
      rnd: scala.util.Random, n: Int, deg: Int, maxSize: Int, maxW: Int,
  ): (PrePartition.CoarseGraph, MapPrePartition.CoarseGraph) = {
    var next = 0L
    val nodes = Vector.fill(n) {
      val size = 1 + rnd.nextInt(maxSize)
      val members = Vector.tabulate(size)(j => next + j)
      next += size
      PrePartition.CoarseNode(members)
    }
    val edges = mutable.LinkedHashMap.empty[(Int, Int), Double]
    for (_ <- 0 until n * deg / 2) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      if (a != b) edges((math.min(a, b), math.max(a, b))) = (1 + rnd.nextInt(maxW)).toDouble
    }
    val es = edges.toVector
    val arrays = PrePartition.CoarseGraph(nodes, Array.emptyIntArray,
      es.map(_._1._1).toArray, es.map(_._1._2).toArray, es.map(_._2).toArray)
    (arrays, MapPrePartition.CoarseGraph(nodes, es.toMap, Map.empty))
  }

  test("the partitioner assigns the oracle's parts on random graphs with tied integer weights") {
    val rnd = new scala.util.Random(23)
    // (nodes, mean degree, largest node size, L_max, largest weight)
    val shapes = Seq(
      (10, 4, 2, 3, 2), (40, 12, 3, 5, 1), (200, 30, 3, 8, 2), (200, 60, 1, 4, 3),
      (1000, 40, 4, 20, 2), (1000, 80, 2, 6, 1), (3000, 50, 3, 100, 3), (5000, 60, 2, 10, 2),
    )
    for (((n, deg, maxSize, lMax, maxW), i) <- shapes.zipWithIndex; rep <- 0 until 2) {
      val (g, oracle) = randomGraph(rnd, n, deg, maxSize, maxW)
      val k = math.max(1, g.nodes.map(_.size).sum / lMax)
      val got = Partitioner.partition(g, k, lMax)
      val want = MapPartitioner.partition(oracle, k, lMax)
      assert(got.sameElements(want), s"shape $i rep $rep: ${got.indices.find(v => got(v) != want(v))}")
    }
  }

  /** Random instances whose match probabilities come from a few values, so
    * merged nodes and aggregated weights tie often.
    */
  private def randomInstance(rnd: scala.util.Random, n: Int, density: Double, phi: Phi): Instance = {
    val probs = Array(0.05, 0.3, 0.5, 0.5, 0.95)
    val t1 = (0 until n).map(k => CTuple(k, 1, Seq(s"l$k"), 1)).toVector
    val t2 = (0 until n).map(k => CTuple(100000 + k, 2, Seq(s"r$k"), 1)).toVector
    val ms = (for (a <- 0 until n; b <- 0 until n if rnd.nextDouble() < density)
      yield TupleMatch(a, 100000 + b, probs(rnd.nextInt(probs.length)))).toVector
    Instance(t1, t2, ms, phi)
  }

  test("pre-partition builds the oracle's coarse graph and the parts agree") {
    val rnd = new scala.util.Random(37)
    val insts =
      Seq((30, 0.2), (100, 0.05), (400, 0.02), (1500, 0.004), (2500, 0.006)).zipWithIndex.map {
        case ((n, d), i) => randomInstance(rnd, n, d, Seq(Phi.Equiv, Phi.LessGeneral, Phi.MoreGeneral)(i % 3))
      } ++ Seq(PinnedInstances.instance(4, 150, 0.02), PinnedInstances.instance(7, 400, 0.003))
    for ((inst, i) <- insts.zipWithIndex; batch <- Seq(10, 100)) {
      val cfg = PrePartition.Config()
      val g = PrePartition.run(inst, cfg)
      val oracle = MapPrePartition.run(inst, cfg)
      assert(PinnedInstances.coarse(g) == PinnedInstances.coarse(oracle), s"instance $i")
      val k = math.max(1, math.ceil((inst.t1.size + inst.t2.size).toDouble / batch).toInt)
      val assign = Partitioner.partition(g, k, batch)
      assert(assign.sameElements(MapPartitioner.partition(oracle, k, batch)), s"instance $i batch $batch")
      assert(math.abs(Partitioner.edgeCut(g, assign) - MapPartitioner.edgeCut(oracle, assign)) < 1e-6)
    }
  }
}
