package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._
import repro.core.{ExplainSolver, PinnedInstances, Scoring}

class PartitionSpec extends AnyFunSuite {

  private val params = Params(0.9, 0.9)

  private def chainInstance(nPairs: Int, crossP: Double = 0.3): Instance = {
    // Pair i: (li, ri) with p=0.95, plus a weak cross edge li → r(i+1).
    val t1 = (0 until nPairs).map(i => CTuple(i, 1, Seq(s"l$i"), 1)).toVector
    val t2 = (0 until nPairs).map(i => CTuple(1000 + i, 2, Seq(s"r$i"), 1)).toVector
    val strong = (0 until nPairs).map(i => TupleMatch(i, 1000 + i, 0.95))
    val weak = (0 until nPairs - 1).map(i => TupleMatch(i, 1000 + i + 1, crossP))
    Instance(t1, t2, (strong ++ weak).toVector, Phi.Equiv, params)
  }

  test("pre-partition merges high-probability pairs") {
    val inst = chainInstance(10)
    val g = PrePartition.run(inst, PrePartition.Config())
    // Each strong pair merges into one coarse node of size 2.
    assert(g.nodes.size == 10)
    assert(g.nodes.forall(_.size == 2))
    // Only the 9 weak cross edges remain, at weight p/R (p ≤ θ_l is false
    // for 0.3, so weight = p).
    assert(g.edgeA.length == 9)
    g.edgeW.foreach(w => assert(math.abs(w - 0.3) < 1e-12))
  }

  test("pre-partition weight scheme rewards/penalizes per the paper") {
    val cfg = PrePartition.Config(thetaL = 0.1, thetaH = 0.9, r = 100)
    assert(cfg.weight(0.95) == 95.0)
    assert(cfg.weight(0.05) == 0.05 / 100)
    assert(cfg.weight(0.5) == 0.5)
  }

  test("pre-partition merges transitively") {
    val t1 = Vector(CTuple(0, 1, Seq("a"), 1), CTuple(1, 1, Seq("b"), 1))
    val t2 = Vector(CTuple(10, 2, Seq("x"), 2))
    val ms = Vector(TupleMatch(0, 10, 0.95), TupleMatch(1, 10, 0.92))
    val g = PrePartition.run(Instance(t1, t2, ms, Phi.LessGeneral, params), PrePartition.Config())
    assert(g.nodes.size == 1 && g.nodes.head.size == 3)
    assert(g.edgeA.isEmpty)
  }

  test("partitioner respects L_max and assigns every node") {
    val inst = chainInstance(50)
    val g = PrePartition.run(inst, PrePartition.Config())
    val assign = Partitioner.partition(g, k = 10, lMax = 10)
    assert(assign.forall(_ >= 0))
    val loads = assign.zipWithIndex.groupBy(_._1).view
      .mapValues(_.map { case (_, node) => g.nodes(node).size }.sum)
    loads.values.foreach(l => assert(l <= 10))
  }

  test("oversized coarse nodes become their own partition") {
    val t1 = (0 until 6).map(i => CTuple(i, 1, Seq(s"l$i"), 1)).toVector
    val t2 = Vector(CTuple(100, 2, Seq("hub"), 6))
    val ms = (0 until 6).map(i => TupleMatch(i, 100, 0.95)).toVector
    val g = PrePartition.run(Instance(t1, t2, ms, Phi.LessGeneral, params), PrePartition.Config())
    assert(g.nodes.size == 1 && g.nodes.head.size == 7)
    val assign = Partitioner.partition(g, k = 3, lMax = 4)
    assert(assign(0) == 0)
  }

  test("edge cut prefers cutting weak edges") {
    val inst = chainInstance(20, crossP = 0.2)
    val g = PrePartition.run(inst, PrePartition.Config())
    val assign = Partitioner.partition(g, k = 4, lMax = 10)
    val cut = Partitioner.edgeCut(g, assign)
    // Strong pairs are inside coarse nodes; only weak edges can be cut, and
    // a chain of 20 coarse nodes into parts of ≤5 cuts ≥ 3 of them.
    assert(cut <= 0.2 * 19 + 1e-9)
  }

  test("smart-partition split covers all tuples exactly once") {
    val inst = chainInstance(30)
    val parts = SmartPartition.split(inst, SmartPartition.Config(batchSize = 10))
    val all = parts.subInstances.flatMap(s => s.t1 ++ s.t2).map(_.id)
    assert(all.size == all.distinct.size)
    assert(all.toSet == inst.tupleById.keySet)
    val nMatches = parts.subInstances.map(_.matches.size).sum + parts.cutMatches.size
    assert(nMatches == inst.matches.size)
  }

  test("partitioned solve equals NOOPT when cuts only lose weak edges") {
    val inst = chainInstance(16, crossP = 0.2)
    val noopt = ExplainSolver.solve(inst)
    val parted = SmartPartition.solve(inst, SmartPartition.Config(batchSize = 8), ExplainSolver.Config())
    // Weak cross edges are never selected by the optimum, so cutting them
    // changes nothing: identical evidence and identical objective.
    assert(parted.explanations.evidence == noopt.explanations.evidence)
    assert(math.abs(parted.logProb - noopt.logProb) < 1e-9)
  }

  test("partitioned solution remains complete") {
    val inst = chainInstance(24, crossP = 0.4)
    val parted = SmartPartition.solve(inst, SmartPartition.Config(batchSize = 6), ExplainSolver.Config())
    assert(Scoring.completenessViolation(inst, parted.explanations).isEmpty)
  }

  test("pinned BATCH-100 pre-partition and split on seeded random instances") {
    // Digests recorded before PrePartition used Scoring.UnionFind: 150x150
    // instances (PinnedInstances.instance). Coarse-node order follows the
    // union-find roots and the partitioner's tie breaks follow that order.
    val expected = Seq(
      // (case, PrePartition.run digest, SmartPartition.split digest)
      (0, "5f6e587a5acbad0f", "081521c7a611afde"),
      (1, "12505260646553f1", "5bb764e4425ad67e"),
      (2, "d58d9d11961367b1", "5843a5f34702de7f"),
      (3, "2ff73ff097fcbc3c", "e3195cdc65ffcb88"),
      (4, "437430d3a1786b11", "651d54dcb8f2cc6d"),
      (5, "5fb2115f5d9a1d10", "0e3e1080bfdf71c1"),
      (6, "8a3b8db6d8ccf50f", "85bfdc9b21195f03"),
      (7, "a6d377ac1e52687f", "73b82278b6f6f9df"),
      (8, "ffe44b8966a8b73d", "28fc08b73c56a4ca"),
      (9, "949275a0d444c667", "a2414f7a50ed5753"),
      (10, "7facb5b3be501c30", "58ff3a0070f5731e"),
      (11, "e27343fd5120d2d3", "b61b8dbb2c548c15"),
      (12, "186ea66380ad8855", "3c71f1470b902be3"),
      (13, "e8df2df6a3c11401", "38dc6b2f5142b734"),
      (14, "4edb3a93ffe3ea12", "1725f57068e3b6f9"),
      (15, "1eae094fef4f0500", "7ed87b4db6d8ac1b"),
      (16, "d816f2e9d45f15fc", "e3ecbd04d711e923"),
      (17, "cb961c299c7cd0e3", "71c4f84d2355865f"),
      (18, "10f1b103cdabc4b9", "85c23c25da4fd4c1"),
      (19, "dc2d000a977a831d", "693111fb74394068"),
    )
    assert(expected.map(_._1) == PinnedInstances.Cases)
    val cfg = SmartPartition.Config(batchSize = 100)
    for ((i, coarse, split) <- expected) {
      val inst = PinnedInstances.instance(i, 150, 0.02)
      assert(PinnedInstances.coarse(PrePartition.run(inst, cfg.pre)) == coarse, s"case $i: pre-partition")
      assert(PinnedInstances.split(SmartPartition.split(inst, cfg)) == split, s"case $i: split")
    }
  }

  test("pinned BATCH-100 pre-partition and split on seeded 1000x1000 instances") {
    // Recorded from the map-based pre-partition and partitioner. At density
    // 0.04 the high-probability matches merge every tuple into one coarse
    // node; at 0.002 the partitioner makes about 500 parts.
    val expected = Seq(
      // (density, case, PrePartition.run digest, SmartPartition.split digest)
      (0.04, 0, "4dd747a44b46603b", "9ad297f147368368"),
      (0.04, 1, "4dd747a44b46603b", "918579af55bcb5f0"),
      (0.04, 2, "4dd747a44b46603b", "63c6f8660219fdec"),
      (0.002, 0, "76a1dc9f42b79d00", "79149f8d933b47f6"),
      (0.002, 1, "f896cd62f5b28843", "de8e2b4a3c6685dd"),
      (0.002, 2, "f44e27f70d0f4d22", "7ba8510c0d8734ef"),
    )
    val cfg = SmartPartition.Config(batchSize = 100)
    for ((density, i, coarse, split) <- expected) {
      val inst = PinnedInstances.instance(i, 1000, density)
      val at = s"density $density case $i"
      assert(PinnedInstances.coarse(PrePartition.run(inst, cfg.pre)) == coarse, s"$at: pre-partition")
      assert(PinnedInstances.split(SmartPartition.split(inst, cfg)) == split, s"$at: split")
    }
  }

  /** The solver settings of the BATCH pins: a node cap low enough that
    * about half the solves stop at it, and a clock that never does.
    */
  private val pinSolver = ExplainSolver.Config(nodeCap = 20_000L, timeLimitMs = 600_000L)

  test("pinned BATCH solves on seeded random instances") {
    // Recorded from the per-part solve loop (one ExplainSolver.solve per
    // sub-instance, merged by hand). Explanations, nodes and provedness are
    // exact; logProb may differ in the last bits, because component tuples
    // follow the full instance's map order and the terms are summed in one
    // pass.
    val expected = Seq(
      // (n, density, batch, case, nodes, proved, explanations digest, logProb)
      (150, 0.02, 10, 0, 713L, true, "5e7880a681cb66da", -818.6792236958719),
      (150, 0.02, 10, 1, 1265L, true, "f3e03d0bea80e127", -681.739435465481),
      (150, 0.02, 10, 2, 1348L, true, "ed74d7214b715084", -655.1636326482351),
      (150, 0.02, 10, 3, 406L, true, "08bb99ae2bd9ff0a", -589.2549464423328),
      (150, 0.02, 10, 4, 4194L, true, "7edf23292333c6dc", -651.1199889308028),
      (150, 0.02, 10, 5, 20943L, false, "5448bebd37a03025", -743.4588567225821),
      (150, 0.02, 10, 6, 523L, true, "7f328e850ab6f4f4", -714.8775681197666),
      (150, 0.02, 10, 7, 685L, true, "052549f3c541d559", -548.2772559348331),
      (150, 0.02, 10, 8, 27271L, false, "b7a33bf90b9d0d9e", -761.6457608325651),
      (150, 0.02, 10, 9, 386L, true, "da0489cf150af035", -802.988177253942),
      (150, 0.02, 10, 10, 4481L, true, "5a8ab59d665df074", -656.0483835123551),
      (150, 0.02, 10, 11, 5678L, true, "367fa95053c18683", -588.6779826925862),
      (150, 0.02, 10, 12, 1534L, true, "1e20a4fdd573ba8c", -722.0106106394035),
      (150, 0.02, 10, 13, 1191L, true, "894e6925396040a7", -637.7426663094215),
      (150, 0.02, 10, 14, 20369L, false, "e6e0677650023667", -642.7303707767488),
      (150, 0.02, 10, 15, 380L, true, "9b0dcb2b6caa2e5b", -625.6673669123543),
      (150, 0.02, 10, 16, 13281L, true, "12dbcb3230ae0bfe", -736.661977834317),
      (150, 0.02, 10, 17, 2354L, true, "a7eaa1b483425fe1", -724.1152314994707),
      (150, 0.02, 10, 18, 421L, true, "ce22256043c350a9", -708.9988089555383),
      (150, 0.02, 10, 19, 499L, true, "556322d1be16d5b7", -594.021879698214),
      (150, 0.02, 30, 0, 9712L, true, "a08adf450c67fcf6", -804.450306666312),
      (150, 0.02, 30, 1, 140144L, false, "ce1cc87611315b2e", -676.5375755970565),
      (150, 0.02, 30, 2, 7737L, true, "6fce545acaec9649", -653.7234009838329),
      (150, 0.02, 30, 3, 4412L, true, "2c3210074dcbc902", -586.9164019963919),
      (150, 0.02, 30, 4, 90550L, false, "0bc84ba20fd6db8b", -641.2164603594493),
      (150, 0.02, 30, 5, 92289L, false, "6c5c074f06887d4b", -745.5790644733345),
      (150, 0.02, 30, 6, 8072L, true, "499087cfd01c868c", -715.8280422939969),
      (150, 0.02, 30, 7, 2709L, true, "20dbeed703fc8027", -553.7977800787697),
      (150, 0.02, 30, 8, 126845L, false, "4a310314c155be81", -741.2643658130677),
      (150, 0.02, 30, 9, 8851L, true, "948a710cd16ce682", -803.6748097534811),
      (150, 0.02, 30, 10, 7115L, true, "4e5c7ffc0c71728e", -654.5144531524288),
      (150, 0.02, 30, 11, 6904L, true, "e34fd7bcd5579341", -588.2766413016624),
      (150, 0.02, 30, 12, 2367L, true, "1e8e4cd96d496bae", -722.1760360410947),
      (150, 0.02, 30, 13, 108765L, false, "2be7801c42687960", -635.2777892470152),
      (150, 0.02, 30, 14, 23158L, false, "56124feb7d7e18ee", -639.5713235942764),
      (150, 0.02, 30, 15, 5920L, true, "2ec2afa080269d4e", -623.3319577776614),
      (150, 0.02, 30, 16, 108121L, false, "ca36cba0db493b50", -720.2878139644417),
      (150, 0.02, 30, 17, 121604L, false, "80f305c45c6af667", -717.4539778872007),
      (150, 0.02, 30, 18, 2004L, true, "b0dc62f5f904eb73", -709.9967139185287),
      (150, 0.02, 30, 19, 2574L, true, "aad2d5e2a53307ee", -593.7005489765176),
      (150, 0.02, 100, 0, 40944L, false, "ad333b21e5a16d10", -838.8373368123056),
      (150, 0.02, 100, 1, 41317L, false, "489a6fcabf144d0e", -705.3099369250682),
      (150, 0.02, 100, 2, 40094L, false, "b5da72240b5a7111", -657.4927076870603),
      (150, 0.02, 100, 3, 40063L, false, "519124ce5a377aa4", -599.9112641820119),
      (150, 0.02, 100, 4, 43326L, false, "05ca7a41115d356d", -659.3871938137407),
      (150, 0.02, 100, 5, 40080L, false, "867750f222ce5a9c", -761.1361287563147),
      (150, 0.02, 100, 6, 40072L, false, "6a95d51836f9c034", -732.5290745007819),
      (150, 0.02, 100, 7, 40094L, false, "ebf49ec323dc8cf4", -550.3685833026046),
      (150, 0.02, 100, 8, 60053L, false, "e2d6c899be7d14b5", -772.5421789253853),
      (150, 0.02, 100, 9, 40088L, false, "900b09d882c99443", -806.7654173039538),
      (150, 0.02, 100, 10, 40066L, false, "ffedb43c07fa9b81", -660.9899485657166),
      (150, 0.02, 100, 11, 40204L, false, "92b460e88da15401", -589.5652858875852),
      (150, 0.02, 100, 12, 40080L, false, "3d5364fa20210034", -722.1775432284718),
      (150, 0.02, 100, 13, 40248L, false, "ee585b4656126891", -652.9828148140315),
      (150, 0.02, 100, 14, 40073L, false, "114f8c0fbcf2f719", -637.9227130960268),
      (150, 0.02, 100, 15, 40057L, false, "299eeab342e9683b", -624.9934628087082),
      (150, 0.02, 100, 16, 40126L, false, "3702803be19897db", -754.9876188859292),
      (150, 0.02, 100, 17, 40113L, false, "c9d3ec6d03ed6a1f", -755.5705620974824),
      (150, 0.02, 100, 18, 40164L, false, "4b14a45d270b186d", -714.4317138224974),
      (150, 0.02, 100, 19, 40066L, false, "c45704229bb35ad8", -591.3193207562017),
      (60, 0.06, 10, 0, 1759L, true, "134d8e36f04b71f7", -351.83016405640586),
      (60, 0.06, 10, 1, 915L, true, "69de93f939b896fd", -287.0363267457063),
      (60, 0.06, 10, 2, 244L, true, "62b2e35588888105", -302.2664648057065),
      (60, 0.06, 10, 3, 413L, true, "8285279961a0b983", -277.1251661386627),
      (60, 0.06, 10, 4, 14245L, true, "ba7063be065bb521", -297.9659178979793),
      (60, 0.06, 10, 5, 20453L, false, "a372c670fc382963", -312.3928231349672),
      (60, 0.06, 10, 6, 723L, true, "3acff1f22316433b", -339.543100805165),
      (60, 0.06, 10, 7, 270L, true, "e5e967c6bf9578cd", -296.4600447138564),
      (60, 0.06, 10, 8, 21660L, false, "f19d7645c7b7f4a8", -345.6496420670427),
      (60, 0.06, 10, 9, 4358L, true, "a44d86ab0ce3bb7f", -358.4388968276226),
      (60, 0.06, 10, 10, 703L, true, "d81d638e80bcc7b7", -322.122476236422),
      (60, 0.06, 10, 11, 1484L, true, "68e6142889d00f87", -287.9802943526315),
      (60, 0.06, 10, 12, 315L, true, "5dd3fccca3a1ba3e", -348.36780490920756),
      (60, 0.06, 10, 13, 895L, true, "955982f978babf25", -330.06531322012614),
      (60, 0.06, 10, 14, 2121L, true, "ff96613c7146fb64", -311.68395727074795),
      (60, 0.06, 10, 15, 1687L, true, "22b346752a861f81", -315.72957078058033),
      (60, 0.06, 10, 16, 836L, true, "7c4efdb07842a5cd", -330.36855378091246),
      (60, 0.06, 10, 17, 2158L, true, "2a8722f8da493b48", -324.7457145635212),
      (60, 0.06, 10, 18, 20076L, false, "021fe5c88f146eff", -320.1195361997486),
      (60, 0.06, 10, 19, 12249L, true, "86bf33db485cfdc4", -278.7766906258853),
      (60, 0.06, 30, 0, 6295L, true, "d40d5b73ce953c86", -350.53811854409133),
      (60, 0.06, 30, 1, 60063L, false, "604f3fcb5df2d0ac", -288.63939930439307),
      (60, 0.06, 30, 2, 2002L, true, "02b90ae50fe39883", -299.65412486443034),
      (60, 0.06, 30, 3, 656L, true, "a827e9b65491908f", -278.6590964985887),
      (60, 0.06, 30, 4, 43626L, false, "20fd3ae03df1bd2b", -313.8606658223244),
      (60, 0.06, 30, 5, 43054L, false, "738694b4cc764107", -311.8442800767293),
      (60, 0.06, 30, 6, 1991L, true, "43a6f52e63a99afc", -339.99619582277035),
      (60, 0.06, 30, 7, 1826L, true, "0d4f56d8b0a238d7", -294.97072943246945),
      (60, 0.06, 30, 8, 60307L, false, "5206a5aded5de106", -345.45304442160085),
      (60, 0.06, 30, 9, 13026L, true, "a97293ce81b93a35", -357.1456424977727),
      (60, 0.06, 30, 10, 5022L, true, "d81d638e80bcc7b7", -322.1224762364223),
      (60, 0.06, 30, 11, 1932L, true, "f13c79ab6b436549", -290.1208465428692),
      (60, 0.06, 30, 12, 1655L, true, "71655115c4587df4", -341.58240404916376),
      (60, 0.06, 30, 13, 60043L, false, "73b529a63feb3def", -334.370525231516),
      (60, 0.06, 30, 14, 3097L, true, "f63008a35dd522ef", -310.4311943022527),
      (60, 0.06, 30, 15, 3922L, true, "9a95a2da92c4d430", -316.1928613968447),
      (60, 0.06, 30, 16, 60375L, false, "82161b6762a36863", -326.54843954647583),
      (60, 0.06, 30, 17, 48460L, false, "147c2324986dacd3", -332.1338744846852),
      (60, 0.06, 30, 18, 20174L, false, "bcb4dcac016b0d65", -321.2343134252702),
      (60, 0.06, 30, 19, 12466L, true, "626912aeaa479a84", -279.37870271227195),
      (60, 0.06, 100, 0, 20017L, false, "609f916baa940d6c", -359.2877853430501),
      (60, 0.06, 100, 1, 20005L, false, "639c68c0ce7f3d56", -303.59768233373967),
      (60, 0.06, 100, 2, 20017L, false, "ffeb01d46271c3fe", -295.3499962636787),
      (60, 0.06, 100, 3, 20008L, false, "61361cb60b79b8d1", -275.57510563901553),
      (60, 0.06, 100, 4, 20014L, false, "37c810ab6c33780c", -313.7996268876869),
      (60, 0.06, 100, 5, 20009L, false, "0f0d5c68e6391f98", -325.6291262429834),
      (60, 0.06, 100, 6, 20007L, false, "c49105f42bd38538", -343.3242799157085),
      (60, 0.06, 100, 7, 20009L, false, "85b0b14853d5997b", -291.41690690854),
      (60, 0.06, 100, 8, 20020L, false, "ead272034845c99d", -354.6792495408808),
      (60, 0.06, 100, 9, 20010L, false, "e2a57b5d39b311ee", -366.40795535473075),
      (60, 0.06, 100, 10, 20006L, false, "9d19088c9978f09e", -313.7286988355434),
      (60, 0.06, 100, 11, 20009L, false, "41b16e89c7c6100c", -287.49894229247906),
      (60, 0.06, 100, 12, 20014L, false, "36383855eabc2a04", -343.40781789482173),
      (60, 0.06, 100, 13, 20022L, false, "5cb34e9ddc72bb86", -347.9161239078615),
      (60, 0.06, 100, 14, 20012L, false, "564a29a8b0c23afb", -306.15736989425926),
      (60, 0.06, 100, 15, 20016L, false, "9bf897f39b374bd8", -316.6429707967443),
      (60, 0.06, 100, 16, 20012L, false, "d001081d3b45acb7", -328.10498636234377),
      (60, 0.06, 100, 17, 20013L, false, "c19abb5df6e2f64e", -340.7665362856654),
      (60, 0.06, 100, 18, 20014L, false, "85d0589c9dcfd2c4", -318.64563611412575),
      (60, 0.06, 100, 19, 20009L, false, "5f203b7245a281bc", -276.63613843564735),
    )
    assert(expected.size == 120)
    for ((n, density, batch, i, nodes, proved, expl, logProb) <- expected) {
      val inst = PinnedInstances.instance(i, n, density)
      val s = SmartPartition.solve(inst, SmartPartition.Config(batch), pinSolver)
      val at = s"n=$n density=$density batch=$batch case $i"
      assert((s.nodes, s.proved, PinnedInstances.explanations(s.explanations)) == ((nodes, proved, expl)), at)
      assert(math.abs(s.logProb - logProb) <= 1e-9 * math.abs(logProb), s"$at: ${s.logProb} vs $logProb")
    }
  }

  test("one deadline covers every part of a BATCH solve") {
    val inst = PinnedInstances.instance(0, 150, 0.02)
    val cfg = SmartPartition.Config(batchSize = 100)
    assert(SmartPartition.split(inst, cfg).subInstances.size > 1)
    val s = SmartPartition.solve(inst, cfg, ExplainSolver.Config(timeLimitMs = 0))
    assert(!s.proved)
    assert(Scoring.completenessViolation(inst, s.explanations).isEmpty)
    assert(!s.logProb.isNegInfinity)
  }

  test("no cut match is ever evidence") {
    val cfg = SmartPartition.Config(batchSize = 10)
    var cuts = 0
    for (i <- PinnedInstances.Cases) {
      val inst = PinnedInstances.instance(i, 150, 0.02)
      val cut = SmartPartition.split(inst, cfg).cutMatches.map(m => (m.left, m.right)).toSet
      val evidence = SmartPartition.solve(inst, cfg, pinSolver).explanations.evidence
      assert(evidence.intersect(cut).isEmpty, s"case $i")
      cuts += cut.size
    }
    assert(cuts > 0)
  }
}
