//===- corpus/Baseline.cpp - Committed observables of the corpus matrix --------===//

#include "corpus/Baseline.h"

#include "driver/CompileCache.h"

#include <cinttypes>
#include <cstdio>

using namespace smltc;

namespace {

// Columns: bench, variant, result, output hash, trapped, uncaught,
//          instructions, cycles, alloc words, barrier stores, GC copied,
//          code words, program hash, base-cadence instructions,
//          optimizer phases, optimizer arena bytes.
const std::vector<BaselineRow> Rows = {
    {"BHut", "sml.nrp", 676, 0xcbf29ce484222325, false, false,
     1423780, 3135254, 517182, 0, 4486,
     2201, 0x421869b90d4bd69d, 1423780, 8, 310268},
    {"BHut", "sml.fag", 676, 0xcbf29ce484222325, false, false,
     1423715, 3135199, 517143, 0, 4498,
     2188, 0x83e0a960db2c27aa, 1423715, 8, 312236},
    {"BHut", "sml.rep", 676, 0xcbf29ce484222325, false, false,
     1009555, 1837053, 242948, 0, 2793,
     1823, 0x0257f8876295cfcb, 1009579, 8, 462992},
    {"BHut", "sml.mtd", 676, 0xcbf29ce484222325, false, false,
     1009555, 1837053, 242948, 0, 2793,
     1823, 0x0257f8876295cfcb, 1009579, 8, 462992},
    {"BHut", "sml.ffb", 676, 0xcbf29ce484222325, false, false,
     954419, 1794095, 219260, 0, 3879,
     1809, 0x6415749988bbb75a, 954419, 9, 426004},
    {"BHut", "sml.fp3", 676, 0xcbf29ce484222325, false, false,
     1110869, 2047454, 219272, 0, 3909,
     2202, 0xa1bd5bf37cccdd9a, 1110869, 9, 426004},
    {"Boyer", "sml.nrp", 660, 0xcbf29ce484222325, false, false,
     6464314, 8294131, 1576763, 0, 8070,
     2176, 0xaa8e5def1c03c538, 6464314, 5, 94544},
    {"Boyer", "sml.fag", 660, 0xcbf29ce484222325, false, false,
     6432409, 8249626, 1557620, 0, 8124,
     2155, 0x0b51163a5afc31b0, 6432409, 5, 98324},
    {"Boyer", "sml.rep", 660, 0xcbf29ce484222325, false, false,
     6343309, 8125093, 1504160, 0, 8193,
     2133, 0xd2a5f9370dbeb33f, 6369929, 5, 107964},
    {"Boyer", "sml.mtd", 660, 0xcbf29ce484222325, false, false,
     6343309, 8125093, 1504160, 0, 8193,
     2133, 0xd2a5f9370dbeb33f, 6369929, 5, 107964},
    {"Boyer", "sml.ffb", 660, 0xcbf29ce484222325, false, false,
     6343309, 8125093, 1504160, 0, 8193,
     2133, 0xd2a5f9370dbeb33f, 6369929, 5, 107964},
    {"Boyer", "sml.fp3", 660, 0xcbf29ce484222325, false, false,
     7648147, 9429943, 1504172, 0, 8196,
     2610, 0xe12c26a34448db8c, 7698527, 5, 107964},
    {"Sieve", "sml.nrp", 154503, 0xcbf29ce484222325, false, false,
     1223940, 1721290, 285131, 0, 4133,
     1904, 0x943b48192ff2f699, 1223940, 6, 167604},
    {"Sieve", "sml.fag", 154503, 0xcbf29ce484222325, false, false,
     1218665, 1713110, 281966, 0, 3868,
     1883, 0x3544886088dd30aa, 1218665, 6, 172092},
    {"Sieve", "sml.rep", 154503, 0xcbf29ce484222325, false, false,
     1218665, 1713110, 281966, 0, 3868,
     1854, 0x9d5fb2c91c0ead9b, 1218665, 6, 204964},
    {"Sieve", "sml.mtd", 154503, 0xcbf29ce484222325, false, false,
     1218665, 1713110, 281966, 0, 3868,
     1854, 0x9d5fb2c91c0ead9b, 1218665, 6, 204964},
    {"Sieve", "sml.ffb", 154503, 0xcbf29ce484222325, false, false,
     1218665, 1713110, 281966, 0, 3868,
     1854, 0x9d5fb2c91c0ead9b, 1218665, 6, 204964},
    {"Sieve", "sml.fp3", 154503, 0xcbf29ce484222325, false, false,
     1464005, 1958483, 281978, 0, 3878,
     2286, 0xaba7a4fa4c6bac51, 1464005, 6, 204964},
    {"KB-C", "sml.nrp", 0, 0xcbf29ce484222325, false, false,
     1890140, 2680378, 545553, 0, 4799,
     2451, 0xb414a5767b389596, 1890140, 5, 101968},
    {"KB-C", "sml.fag", 0, 0xcbf29ce484222325, false, false,
     1726792, 2456728, 455891, 0, 5758,
     2409, 0x8a0a7b3e583b45d1, 1726792, 5, 124120},
    {"KB-C", "sml.rep", 0, 0xcbf29ce484222325, false, false,
     1718282, 2442465, 450785, 0, 4975,
     2387, 0x0edf828462a359c0, 1722130, 5, 112548},
    {"KB-C", "sml.mtd", 0, 0xcbf29ce484222325, false, false,
     1718282, 2442465, 450785, 0, 4975,
     2387, 0x0edf828462a359c0, 1722130, 5, 112548},
    {"KB-C", "sml.ffb", 0, 0xcbf29ce484222325, false, false,
     1718282, 2442465, 450785, 0, 4975,
     2387, 0x0edf828462a359c0, 1722130, 5, 112548},
    {"KB-C", "sml.fp3", 0, 0xcbf29ce484222325, false, false,
     1989731, 2718123, 453917, 0, 5077,
     2918, 0x3cccc56b44471f2d, 1993579, 5, 112548},
    {"Lexgen", "sml.nrp", 840380, 0xcbf29ce484222325, false, false,
     277376, 440350, 88042, 0, 321,
     2461, 0x1169362654b60cbb, 277376, 7, 153000},
    {"Lexgen", "sml.fag", 840380, 0xcbf29ce484222325, false, false,
     264583, 419654, 78493, 0, 329,
     2428, 0x0048b7078ae0c6cb, 264583, 7, 161976},
    {"Lexgen", "sml.rep", 840380, 0xcbf29ce484222325, false, false,
     264583, 419654, 78493, 0, 329,
     2399, 0xc1d9b03e918353af, 264583, 7, 155680},
    {"Lexgen", "sml.mtd", 840380, 0xcbf29ce484222325, false, false,
     264583, 419654, 78493, 0, 329,
     2399, 0xc1d9b03e918353af, 264583, 7, 155680},
    {"Lexgen", "sml.ffb", 840380, 0xcbf29ce484222325, false, false,
     264583, 419654, 78493, 0, 329,
     2399, 0xc1d9b03e918353af, 264583, 7, 155680},
    {"Lexgen", "sml.fp3", 840380, 0xcbf29ce484222325, false, false,
     304567, 459668, 78505, 0, 338,
     2948, 0xf9a658ef550fe3bb, 304567, 7, 155680},
    {"Yacc", "sml.nrp", 3600, 0xcbf29ce484222325, false, false,
     712818, 1178084, 192833, 0, 1374,
     2183, 0x68fa8d5d014b244a, 712818, 5, 129540},
    {"Yacc", "sml.fag", 3600, 0xcbf29ce484222325, false, false,
     628452, 1047353, 134469, 0, 1040,
     2133, 0x8e0191db12d4169e, 628452, 5, 141844},
    {"Yacc", "sml.rep", 3600, 0xcbf29ce484222325, false, false,
     628452, 1047353, 134469, 0, 1040,
     2104, 0x05dc69107b03b7d2, 628452, 5, 132416},
    {"Yacc", "sml.mtd", 3600, 0xcbf29ce484222325, false, false,
     628452, 1047353, 134469, 0, 1040,
     2104, 0x05dc69107b03b7d2, 628452, 5, 132416},
    {"Yacc", "sml.ffb", 3600, 0xcbf29ce484222325, false, false,
     628452, 1047353, 134469, 0, 1040,
     2104, 0x05dc69107b03b7d2, 628452, 5, 132416},
    {"Yacc", "sml.fp3", 3600, 0xcbf29ce484222325, false, false,
     702897, 1121876, 134481, 0, 1065,
     2584, 0xeb4beaaf17e3aa81, 702897, 5, 132416},
    {"Simple", "sml.nrp", 106036, 0xcbf29ce484222325, false, false,
     554233, 1230093, 231187, 2832, 1506,
     2282, 0x728382daec2b1e52, 554233, 5, 144100},
    {"Simple", "sml.fag", 106036, 0xcbf29ce484222325, false, false,
     527346, 1184827, 214442, 2801, 1191,
     2250, 0x8059d5f9f8a44eef, 527346, 5, 152372},
    {"Simple", "sml.rep", 106036, 0xcbf29ce484222325, false, false,
     311508, 556949, 60597, 1298, 396,
     2062, 0xaac04167e3167243, 311508, 5, 153096},
    {"Simple", "sml.mtd", 106036, 0xcbf29ce484222325, false, false,
     311508, 556949, 60597, 1298, 396,
     2062, 0xaac04167e3167243, 311508, 5, 153096},
    {"Simple", "sml.ffb", 106036, 0xcbf29ce484222325, false, false,
     291224, 531567, 50454, 748, 388,
     2038, 0x9e739eeeeef9b0b1, 291224, 5, 142936},
    {"Simple", "sml.fp3", 106036, 0xcbf29ce484222325, false, false,
     322115, 579768, 50466, 749, 397,
     2500, 0x6fc9223359a87dea, 322115, 5, 142936},
    {"Ray", "sml.nrp", 696, 0xcbf29ce484222325, false, false,
     1193808, 2122758, 487750, 0, 769,
     3365, 0x98e342da6a91d126, 1193808, 8, 1034848},
    {"Ray", "sml.fag", 696, 0xcbf29ce484222325, false, false,
     1118702, 2011551, 438990, 0, 599,
     3280, 0xfba3b309ea2632a0, 1118702, 8, 1108428},
    {"Ray", "sml.rep", 696, 0xcbf29ce484222325, false, false,
     938004, 1571875, 306610, 0, 520,
     3137, 0x9ee176536ae7aee1, 943118, 8, 1091932},
    {"Ray", "sml.mtd", 696, 0xcbf29ce484222325, false, false,
     938004, 1571875, 306610, 0, 520,
     3137, 0x9ee176536ae7aee1, 943118, 8, 1091932},
    {"Ray", "sml.ffb", 696, 0xcbf29ce484222325, false, false,
     768157, 1590099, 328224, 0, 282,
     2936, 0xb91a09e54a8fb264, 768157, 12, 1139228},
    {"Ray", "sml.fp3", 696, 0xcbf29ce484222325, false, false,
     845062, 1705099, 328236, 0, 282,
     3476, 0x4084ea8573152225, 845062, 12, 1139228},
    {"Life", "sml.nrp", 984, 0xcbf29ce484222325, false, false,
     2545317, 7610453, 475394, 0, 929,
     2471, 0xa259654ad85208aa, 2545317, 6, 152568},
    {"Life", "sml.fag", 984, 0xcbf29ce484222325, false, false,
     2046761, 6910334, 175724, 0, 485,
     2406, 0xb6b48279fa9b4665, 2046761, 6, 171256},
    {"Life", "sml.rep", 984, 0xcbf29ce484222325, false, false,
     2054795, 6919791, 173750, 0, 473,
     2985, 0xe9b2b58791b4973b, 2054799, 6, 252600},
    {"Life", "sml.mtd", 984, 0xcbf29ce484222325, false, false,
     1983458, 2786880, 173750, 0, 473,
     2993, 0x25d4fb9958c870cc, 1983462, 6, 258128},
    {"Life", "sml.ffb", 984, 0xcbf29ce484222325, false, false,
     1983458, 2786880, 173750, 0, 473,
     2993, 0x25d4fb9958c870cc, 1983462, 6, 258128},
    {"Life", "sml.fp3", 984, 0xcbf29ce484222325, false, false,
     2385971, 3189435, 173762, 0, 482,
     3593, 0x5e2f0eadff4b3e8d, 2385975, 6, 258128},
    {"VLIW", "sml.nrp", 11880, 0xcbf29ce484222325, false, false,
     1869714, 3222283, 436073, 0, 7839,
     1975, 0x41e47e91d6e202ae, 1869714, 5, 104916},
    {"VLIW", "sml.fag", 11880, 0xcbf29ce484222325, false, false,
     1636249, 2896644, 320600, 0, 5660,
     1968, 0x97ae627e0d700e9d, 1636249, 6, 126644},
    {"VLIW", "sml.rep", 11880, 0xcbf29ce484222325, false, false,
     1690564, 2972196, 352055, 0, 6469,
     1964, 0x6295e8e523dd5691, 1690564, 6, 173060},
    {"VLIW", "sml.mtd", 11880, 0xcbf29ce484222325, false, false,
     1690564, 2972196, 352055, 0, 6469,
     1964, 0x6295e8e523dd5691, 1690564, 6, 173060},
    {"VLIW", "sml.ffb", 11880, 0xcbf29ce484222325, false, false,
     1690564, 2972196, 352055, 0, 6469,
     1964, 0x6295e8e523dd5691, 1690564, 6, 173060},
    {"VLIW", "sml.fp3", 11880, 0xcbf29ce484222325, false, false,
     1999732, 3281352, 352067, 0, 6464,
     2405, 0x51bd67c45555f624, 1999732, 6, 173060},
    {"MBrot", "sml.nrp", 19232, 0xcbf29ce484222325, false, false,
     2834733, 4981389, 1129184, 0, 768,
     2197, 0xdbcc3fd850712ecb, 2834733, 5, 216468},
    {"MBrot", "sml.fag", 19232, 0xcbf29ce484222325, false, false,
     2703567, 4779294, 1041740, 0, 714,
     2171, 0xf56d0abd44daa97a, 2703567, 5, 225160},
    {"MBrot", "sml.rep", 19232, 0xcbf29ce484222325, false, false,
     1846105, 3150962, 676122, 0, 220,
     2048, 0x49d9d6d4cd04191e, 1925055, 5, 230748},
    {"MBrot", "sml.mtd", 19232, 0xcbf29ce484222325, false, false,
     1846105, 3150962, 676122, 0, 220,
     2048, 0x49d9d6d4cd04191e, 1925055, 5, 230748},
    {"MBrot", "sml.ffb", 19232, 0xcbf29ce484222325, false, false,
     1115647, 1794612, 270122, 0, 50,
     1989, 0x99c7d26f989a0e28, 1115647, 5, 205716},
    {"MBrot", "sml.fp3", 19232, 0xcbf29ce484222325, false, false,
     1254712, 2059467, 270134, 0, 59,
     2448, 0x0a13b15bf1586970, 1254712, 5, 205716},
    {"Nucleic", "sml.nrp", 19, 0xcbf29ce484222325, false, false,
     365180, 1272899, 182337, 0, 2707,
     2209, 0xa1eb6ad92ddf1777, 365180, 8, 271136},
    {"Nucleic", "sml.fag", 19, 0xcbf29ce484222325, false, false,
     357353, 1250696, 177640, 0, 2799,
     2179, 0x181d00ad4b4f023d, 357353, 8, 278960},
    {"Nucleic", "sml.rep", 19, 0xcbf29ce484222325, false, false,
     148097, 522647, 30345, 0, 0,
     1787, 0xe4f9d8f9e6316437, 156737, 7, 301452},
    {"Nucleic", "sml.mtd", 19, 0xcbf29ce484222325, false, false,
     148097, 522647, 30345, 0, 0,
     1787, 0xe4f9d8f9e6316437, 156737, 7, 301452},
    {"Nucleic", "sml.ffb", 19, 0xcbf29ce484222325, false, false,
     133919, 506669, 23973, 0, 0,
     1783, 0x24d5ae7e00fcffb2, 133919, 9, 296020},
    {"Nucleic", "sml.fp3", 19, 0xcbf29ce484222325, false, false,
     148034, 540707, 23985, 0, 0,
     2167, 0xa9e5f64331af7565, 148034, 9, 296020},
};

} // namespace

const std::vector<BaselineRow> &smltc::corpusBaseline() { return Rows; }

VmOptions smltc::baselineVmOptions(const CompilerOptions &Opts) {
  VmOptions V;
  V.UnalignedFloats = Opts.UnalignedFloats;
  return V;
}

void smltc::setRunColumns(BaselineRow &Row, const ExecResult &R) {
  Row.Result = R.Result;
  Row.OutputHash = fnv1a64(R.Output);
  Row.Trapped = R.Trapped;
  Row.Uncaught = R.UncaughtException;
  Row.Instructions = R.Instructions;
  Row.Cycles = R.Cycles;
  Row.AllocWords32 = R.AllocWords32;
  Row.BarrierStores = R.Metrics.BarrierStores;
  Row.GcCopiedWords = R.GcCopiedWords;
}

void smltc::setCompileColumns(BaselineRow &Row, const CompileOutput &C,
                              uint64_t BaseInstructions) {
  const CpsOptStats &S = C.Metrics.Opt;
  Row.CodeWords = C.Metrics.CodeSize;
  Row.ProgramHash = fnv1a64(programBytes(C.Program));
  Row.BaseInstructions = BaseInstructions;
  Row.OptPhases = static_cast<uint32_t>(S.Rounds);
  Row.OptArenaBytes = S.ArenaBytesAfter - S.ArenaBytesBefore;
}

std::string smltc::baselineDiff(const BaselineRow &Want,
                                const BaselineRow &Got, bool RunOnly) {
  std::string D;
  auto Col = [&D](const char *Name, auto W, auto G) {
    if (W != G)
      D += std::string(Name) + ": want " + std::to_string(W) + ", got " +
           std::to_string(G) + "; ";
  };
  Col("Result", Want.Result, Got.Result);
  Col("OutputHash", Want.OutputHash, Got.OutputHash);
  Col("Trapped", Want.Trapped, Got.Trapped);
  Col("Uncaught", Want.Uncaught, Got.Uncaught);
  Col("Instructions", Want.Instructions, Got.Instructions);
  Col("Cycles", Want.Cycles, Got.Cycles);
  Col("AllocWords32", Want.AllocWords32, Got.AllocWords32);
  Col("BarrierStores", Want.BarrierStores, Got.BarrierStores);
  Col("GcCopiedWords", Want.GcCopiedWords, Got.GcCopiedWords);
  if (RunOnly)
    return D;
  Col("CodeWords", Want.CodeWords, Got.CodeWords);
  Col("ProgramHash", Want.ProgramHash, Got.ProgramHash);
  Col("BaseInstructions", Want.BaseInstructions, Got.BaseInstructions);
  Col("OptPhases", Want.OptPhases, Got.OptPhases);
  Col("OptArenaBytes", Want.OptArenaBytes, Got.OptArenaBytes);
  return D;
}

std::string smltc::formatBaselineRow(const BaselineRow &R) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "    {\"%s\", \"%s\", %" PRId64 ", 0x%016" PRIx64
                ", %s, %s,\n"
                "     %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ",\n"
                "     %" PRIu64 ", 0x%016" PRIx64 ", %" PRIu64 ", %" PRIu32
                ", %" PRIu64 "},\n",
                R.Bench, R.Variant, R.Result, R.OutputHash,
                R.Trapped ? "true" : "false", R.Uncaught ? "true" : "false",
                R.Instructions, R.Cycles, R.AllocWords32, R.BarrierStores,
                R.GcCopiedWords, R.CodeWords, R.ProgramHash,
                R.BaseInstructions, R.OptPhases, R.OptArenaBytes);
  return Buf;
}
