// Golden identity wall for graph construction. Every generator's CSR
// fingerprint, and the RNG state each generator leaves behind, are pinned
// at fixed streams. A new construction path must reproduce both exactly:
// the rejection loop's draws are part of a random-regular instance, and a
// generator that consumed one draw more or less would shift every later
// graph drawn from the same stream.
//
// The random-regular rows cover the three paths of the pairing model: a
// rejection attempt that succeeds, first time or after restarts (r <= 3,
// and r = 4 at n = 64), the repair fallback after 64 failed attempts
// (r = 4 at n = 1024, r = 8) or with no attempt at all, and the
// shortened restart cap above r = 8 (r = 16, 24, 32). Deterministic rows
// take their stream only to prove they draw nothing. The last two
// random-regular rows (regular_65536_r8, the graph the expander-prebaked
// benchmark bakes, and a Theorem 1.2 cell at n = 8192) were recorded on
// the first-collision attempt loop, before the self-loop scan replaced
// it; RandomRegularMatchesFirstCollisionReference checks the two loops
// against each other over a grid of streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <ios>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "graph/spec.hpp"
#include "rng/stream.hpp"

namespace cobra::graph {
namespace {

constexpr std::uint64_t kGoldenSeed = 20170724;

struct GoldenCase {
  const char* label;
  Graph (*make)(rng::Rng&);
  std::uint64_t fingerprint;
  std::array<std::uint64_t, 4> state;  // rng.state() after make()
};

std::string actual_row(const GoldenCase& c, std::uint64_t fingerprint,
                       const std::array<std::uint64_t, 4>& state) {
  std::ostringstream os;
  os << std::hex << "{\"" << c.label << "\", ..., 0x" << fingerprint
     << "ull, {0x" << state[0] << "ull, 0x" << state[1] << "ull, 0x"
     << state[2] << "ull, 0x" << state[3] << "ull}}";
  return os.str();
}

// Row i of a table draws from stream i of kGoldenSeed: append rows,
// never reorder them.
template <std::size_t N>
void expect_golden(const std::array<GoldenCase, N>& cases) {
  for (std::size_t i = 0; i < N; ++i) {
    const GoldenCase& c = cases[i];
    SCOPED_TRACE(c.label);
    rng::Rng rng = rng::make_stream(kGoldenSeed, i);
    const Graph g = c.make(rng);
    const std::uint64_t fp = g.fingerprint();
    if (fp != c.fingerprint || rng.state() != c.state)
      ADD_FAILURE() << "golden mismatch; actual " << actual_row(c, fp,
                                                                rng.state());
  }
}

// Recorded before the flat-set / partner-table construction path existed,
// on the code it replaced.
const std::array<GoldenCase, 21> kRandomRegular = {{
    {"random_regular(16,r=1)",
     [](rng::Rng& g) { return random_regular(16, 1, g); },
     0x4f2c6ef1f6acad63ull,
     {0xe2ac4b7ce62729baull, 0xbd04654c45341a37ull,
      0xe4f1cd780170ede8ull, 0x745363e396c679b2ull}},
    {"random_regular(1000,r=1)",
     [](rng::Rng& g) { return random_regular(1000, 1, g); },
     0x6b25ab839ba42c67ull,
     {0x675a0b68a4ba44a3ull, 0x41a87efa60354e40ull,
      0x4b6d69a885fd9e0cull, 0x150f04eb4a05ec78ull}},
    {"random_regular(20,r=2)",
     [](rng::Rng& g) { return random_regular(20, 2, g); },
     0x3badb54b0268bb8dull,
     {0x80950a40f2368b7full, 0x2a34148bc7bfb896ull,
      0x7d632f3fd3690d4full, 0x38efea7825642cdcull}},
    {"random_regular(2000,r=2)",
     [](rng::Rng& g) { return random_regular(2000, 2, g); },
     0x1bd433756656332eull,
     {0xe9060f671655a271ull, 0xdac4219bbd4dea4aull,
      0x6f7852117502a073ull, 0x38a7361a12130ea9ull}},
    {"random_regular(10,r=3)",
     [](rng::Rng& g) { return random_regular(10, 3, g); },
     0xfd459996332e4adeull,
     {0x27f8c49ab61cca44ull, 0x2ebcb008ca4bffa5ull,
      0xd635b69102eef104ull, 0xfa0245ab7f8158e8ull}},
    {"random_regular(64,r=3)",
     [](rng::Rng& g) { return random_regular(64, 3, g); },
     0x7f440f4f64ac1035ull,
     {0x95cc32752fc48454ull, 0x437b7bfef37b4e2dull,
      0x64091890f3e8ca4eull, 0xc73ff580f7acf319ull}},
    {"random_regular(1000,r=3)",
     [](rng::Rng& g) { return random_regular(1000, 3, g); },
     0xbf072e4d6adc7fecull,
     {0x836bf1735a626861ull, 0xa81c6403f8bdfdfdull,
      0x7cb3f3121bb1e7full, 0xb634c0425a4fed5full}},
    {"random_regular(1000,r=3) repair only",
     [](rng::Rng& g) { return random_regular(1000, 3, g, 0); },
     0x16c135920b96edf8ull,
     {0xb2f5efa13802a74cull, 0x837860b8fb2d2423ull,
      0x502dee33f6c3a762ull, 0x67e4abe2f6c312afull}},
    {"random_regular(64,r=4)",
     [](rng::Rng& g) { return random_regular(64, 4, g); },
     0xb9a317f2b0253d86ull,
     {0xddaffe2fcf33c27dull, 0xa1175fa0aaf7b75aull,
      0xe25b4b4ea6efa8b3ull, 0xee607c678472b2f3ull}},
    {"random_regular(1024,r=4)",
     [](rng::Rng& g) { return random_regular(1024, 4, g); },
     0xe9ed076976d80bb6ull,
     {0x837148dc86f4354eull, 0x4e164ee7790447e7ull,
      0x9408362b4a3c6ac2ull, 0xd0262ea41771385ull}},
    {"random_regular(64,r=8)",
     [](rng::Rng& g) { return random_regular(64, 8, g); },
     0xdf4075ff555e27c5ull,
     {0x8681ae1f9b6b94c7ull, 0xa37e192a9469950aull,
      0x7c1d500e04a8d97ull, 0xde6722b7d5ae26d8ull}},
    {"random_regular(4096,r=8)",
     [](rng::Rng& g) { return random_regular(4096, 8, g); },
     0xcf8420f093a19f5eull,
     {0x6a390e7583d67124ull, 0x1590b07547888253ull,
      0xabc56eb573971f54ull, 0x591b681841f463f9ull}},
    {"random_regular(128,r=16)",
     [](rng::Rng& g) { return random_regular(128, 16, g); },
     0xcec814fbd2a80f08ull,
     {0xb637e5e7f621e369ull, 0x321d199e4ed80abfull,
      0xb862dbce37ab5ae5ull, 0x8692f3ec51e77a76ull}},
    {"random_regular(100,r=24)",
     [](rng::Rng& g) { return random_regular(100, 24, g); },
     0x678dac9c2cb81de2ull,
     {0xa53f6f0b507b8184ull, 0x410f9928efde8c42ull,
      0x90087ee655c4e24ull, 0xc6f66fa91defbbe3ull}},
    {"random_regular(256,r=32)",
     [](rng::Rng& g) { return random_regular(256, 32, g); },
     0x7b036b87cb58142cull,
     {0xb1727f6e0f7a621dull, 0x7c67a481753b7857ull,
      0x362f8319256fe965ull, 0xf8524ebfb1eb6ebcull}},
    {"connected_random_regular(64,r=3)",
     [](rng::Rng& g) { return connected_random_regular(64, 3, g); },
     0xf8037aba9f0ca801ull,
     {0x9804abeaa24a6c3full, 0x1acba2c58c9c4a29ull,
      0xe644fe1c14b14cb2ull, 0xe096eb0ab2f87d44ull}},
    {"connected_random_regular(2048,r=4)",
     [](rng::Rng& g) { return connected_random_regular(2048, 4, g); },
     0xab358c53cb570c85ull,
     {0x934d54cd1a7033a8ull, 0xe5fad3f9e13c9ce7ull,
      0xd101d16373334e8aull, 0xb013c9c16ec3fe90ull}},
    {"connected_random_regular(512,r=8)",
     [](rng::Rng& g) { return connected_random_regular(512, 8, g); },
     0xc91b06a59bd89f76ull,
     {0x766b917e43a8119cull, 0x50a318bc96ad4254ull,
      0xfbffc22c2d96eca9ull, 0x85581f840c653be9ull}},
    {"spec regular_1024_r3",
     [](rng::Rng&) { return build_graph_spec("regular_1024_r3"); },
     0x233fac18dc36395ull,
     {0x1e81286ddfb0ba90ull, 0xba042790f37337fbull,
      0xc59897a32cd5686dull, 0xe645563aea264009ull}},
    {"spec regular_65536_r8",
     [](rng::Rng&) { return build_graph_spec("regular_65536_r8"); },
     0x8da53bc46ccdb929ull,
     {0xd127cc9ce638b906ull, 0x101b46ad4bbd39a3ull,
      0xae0b2c0afcff149bull, 0x590a6568ee533f3dull}},
    {"random_regular(8192,r=8)",
     [](rng::Rng& g) { return random_regular(8192, 8, g); },
     0xdedd9e08f7d43781ull,
     {0xc0d32a8b11313175ull, 0xc33af5a2aa74748bull,
      0xb2af1d41f6550283ull, 0x32717eb9d7d2b8a7ull}},
}};

const std::array<GoldenCase, 26> kDeterministic = {{
    {"complete(2)",
     [](rng::Rng&) { return complete(2); },
     0xda5407810c87b0ecull,
     {0xc6d0564dee66d388ull, 0xa0bf1b2fb5290e18ull,
      0x905ace8480069ae8ull, 0xf942fd2ffad08126ull}},
    {"complete(3)",
     [](rng::Rng&) { return complete(3); },
     0x43027b5a8c4ad704ull,
     {0xf867cfe549c15c01ull, 0x9d22fc01a9740e7cull,
      0xffeb6aa8690694cfull, 0x779954aa2c7f4406ull}},
    {"complete(64)",
     [](rng::Rng&) { return complete(64); },
     0xa704772bdb853289ull,
     {0x32a7e78f2ff52a02ull, 0x9d0c0602ccff371dull,
      0x247d753cbea5fb6eull, 0x2fd7beae21e65585ull}},
    {"cycle(3)",
     [](rng::Rng&) { return cycle(3); },
     0x43027b5a8c4ad704ull,
     {0xc41472890e4452d0ull, 0xb01bd01157dadd33ull,
      0xe6baf14cf5c5ce53ull, 0xdd17325d70dd4432ull}},
    {"cycle(100)",
     [](rng::Rng&) { return cycle(100); },
     0x1514708fa431e2f9ull,
     {0x930254f6a79cb26cull, 0xacb1ed185f55492full,
      0xdc27e9c9c804e0eeull, 0xf8ff8435da8bc05aull}},
    {"path(2)",
     [](rng::Rng&) { return path(2); },
     0xda5407810c87b0ecull,
     {0x42157411666863ddull, 0x1cce066d2c2a073aull,
      0x666cadee0f60a517ull, 0x1a8f5abcda7aef2cull}},
    {"path(50)",
     [](rng::Rng&) { return path(50); },
     0xb8a69ddb17305c11ull,
     {0xc0d87167dcaa65d8ull, 0xc51dc3760c6c45d9ull,
      0x5ca395cdf6eb4af4ull, 0x87f23a55aa61d4ddull}},
    {"star(2)",
     [](rng::Rng&) { return star(2); },
     0xda5407810c87b0ecull,
     {0xca8dc16fee850e40ull, 0xe2e821f0ab7ddfdbull,
      0x52c9dad472909f8full, 0x11daa0605323afcaull}},
    {"star(40)",
     [](rng::Rng&) { return star(40); },
     0x9a598fe6fcd83b0eull,
     {0x85b5ec5c28a512eull, 0x19cf03da81caec78ull,
      0xd946f0cf3af3a7d4ull, 0x48598396ee4f4a15ull}},
    {"hypercube(1)",
     [](rng::Rng&) { return hypercube(1); },
     0xda5407810c87b0ecull,
     {0xe01699fbeabe76bull, 0xc2c2bfae71d23399ull,
      0x90c42c2eec65bf66ull, 0xefa29bea78286620ull}},
    {"hypercube(7)",
     [](rng::Rng&) { return hypercube(7); },
     0x855e6d956721bb29ull,
     {0xb276a1ea28fed42full, 0xffd479d098b1e144ull,
      0x3bf61d2aafb8378dull, 0xa630825663da9b09ull}},
    {"complete_bipartite(3,5)",
     [](rng::Rng&) { return complete_bipartite(3, 5); },
     0x372b865134770aa7ull,
     {0x1f1f3d39f79732c8ull, 0xd81a79bfcfa79bc9ull,
      0xf7ee1f66a503b81bull, 0x30ab4bfcd43302edull}},
    {"grid(1x5)",
     [](rng::Rng&) { return grid({1, 5}, false); },
     0x18aaf02ae6f94b0eull,
     {0xb991f9e30b444f2bull, 0x92dbdcff7cc5fb85ull,
      0xa454bedf4f23d246ull, 0x889ef5a2c56a271bull}},
    {"grid(3x4x2)",
     [](rng::Rng&) { return grid({3, 4, 2}, false); },
     0x328365fdd095e33cull,
     {0xddbfcd2ddf347c25ull, 0x7ee807dcc66f4673ull,
      0x666a76fb48423f8bull, 0x1522ef3a0be725fbull}},
    {"torus(1x7)",
     [](rng::Rng&) { return grid({1, 7}, true); },
     0x71c49446233a3b15ull,
     {0xc965de2010bb7b0full, 0x1c68e9342ac6f53bull,
      0xa0af7ecd3b6b942aull, 0x5004b85e5f65b9d8ull}},
    {"torus(2x2)",
     [](rng::Rng&) { return grid({2, 2}, true); },
     0xf8794fa72b6a2e38ull,
     {0x57edddacc65eef5dull, 0x4e568f44dc2765d3ull,
      0xb50d77f82084d371ull, 0xe287f43de7281077ull}},
    {"torus(2x5)",
     [](rng::Rng&) { return grid({2, 5}, true); },
     0x8f86b4c9902a5aecull,
     {0xfeb7252c6a3d8bedull, 0x328536ceed6da696ull,
      0x31d5f1eebf4ff039ull, 0x61c1bef5baa6b1cbull}},
    {"torus(4x4x4)",
     [](rng::Rng&) { return torus_power(4, 3); },
     0x5c393785b36546e8ull,
     {0x582ea2ff5acf1ecfull, 0x25e0594f994b00e0ull,
      0x72775a8c8bdbc15full, 0x6133e5e5a10b1562ull}},
    {"binary_tree(31)",
     [](rng::Rng&) { return binary_tree(31); },
     0x19b09e1c267ee1ebull,
     {0x1e81286ddfb0ba90ull, 0xba042790f37337fbull,
      0xc59897a32cd5686dull, 0xe645563aea264009ull}},
    {"kary_tree(30,k=3)",
     [](rng::Rng&) { return kary_tree(30, 3); },
     0x7155a6a629f40ca0ull,
     {0xd127cc9ce638b906ull, 0x101b46ad4bbd39a3ull,
      0xae0b2c0afcff149bull, 0x590a6568ee533f3dull}},
    {"barbell(5,bridge=3)",
     [](rng::Rng&) { return barbell(5, 3); },
     0xac5a9f3382d0cfeeull,
     {0x69a6fa4a9b67b36ull, 0xa3213db4bace4ddcull,
      0xef8610bbfbcdfe82ull, 0x61763c64ace65c0full}},
    {"lollipop(6,tail=4)",
     [](rng::Rng&) { return lollipop(6, 4); },
     0x5da865380f4217dfull,
     {0x130266049fa0c777ull, 0xb1c714ee3018bcffull,
      0xe20c9037858a97ceull, 0xf37794b5117a6228ull}},
    {"circulant(10;1,5)",
     [](rng::Rng&) { return circulant(10, {1, 5}); },
     0xe80ac1d422d54e0ull,
     {0x6e848d5c5398bc1bull, 0xb4970cfbfc915ee9ull,
      0x9d5cff308617502dull, 0x90079bae09ac7e46ull}},
    {"circulant(12;2,3,6)",
     [](rng::Rng&) { return circulant(12, {2, 3, 6}); },
     0x2678a1f30e6e82f6ull,
     {0xd02cc8250f026c64ull, 0x1a3a88ef882f2f9bull,
      0xcf9881ab6e6e5712ull, 0x7675f87671221455ull}},
    {"petersen",
     [](rng::Rng&) { return petersen(); },
     0x26d8715cdafa5604ull,
     {0x62657e3ad0f6f2aull, 0x6e8815e54e4d2f7eull,
      0xd481c18fa64e1a28ull, 0xe7886850efa2f821ull}},
    {"spec complete_2048",
     [](rng::Rng&) { return build_graph_spec("complete_2048"); },
     0x36af0d255dcb9412ull,
     {0x4679c673d0214e53ull, 0x8f44d2da52e4474ull,
      0xec927e88596772a9ull, 0xa772c1b062692ee8ull}},
}};

const std::array<GoldenCase, 9> kOtherRandom = {{
    {"watts_strogatz(50,k=4,beta=0)",
     [](rng::Rng& g) { return watts_strogatz(50, 4, 0.0, g); },
     0x3eab2825093a3b7bull,
     {0xc6d0564dee66d388ull, 0xa0bf1b2fb5290e18ull,
      0x905ace8480069ae8ull, 0xf942fd2ffad08126ull}},
    {"watts_strogatz(100,k=4,beta=0.2)",
     [](rng::Rng& g) { return watts_strogatz(100, 4, 0.2, g); },
     0xf621ffe4486003faull,
     {0xe188d58fbd88717cull, 0xa873c56437b8f267ull,
      0x429e7ad6e8cce6c6ull, 0xbe685965d13bcb97ull}},
    {"watts_strogatz(64,k=6,beta=1)",
     [](rng::Rng& g) { return watts_strogatz(64, 6, 1.0, g); },
     0xd7233916d6795e1full,
     {0x4f16072393ecbd48ull, 0xdb3e1bc57b751e17ull,
      0xf1941e6c2ecc1a0dull, 0xee458edf812cb608ull}},
    {"gnp(200,p=0.05)",
     [](rng::Rng& g) { return erdos_renyi_gnp(200, 0.05, g); },
     0x859224894c9517c1ull,
     {0x9cb3a5c6b5508954ull, 0x3e1bf08ee6e87e02ull,
      0xaa8339c3ffc4805cull, 0xe18725eac48c693bull}},
    {"gnp(30,p=1)",
     [](rng::Rng& g) { return erdos_renyi_gnp(30, 1.0, g); },
     0xad90ea543dea94beull,
     {0x930254f6a79cb26cull, 0xacb1ed185f55492full,
      0xdc27e9c9c804e0eeull, 0xf8ff8435da8bc05aull}},
    {"gnp(40,p=0)",
     [](rng::Rng& g) { return erdos_renyi_gnp(40, 0.0, g); },
     0xc1c55312f37b9e2cull,
     {0x42157411666863ddull, 0x1cce066d2c2a073aull,
      0x666cadee0f60a517ull, 0x1a8f5abcda7aef2cull}},
    {"barabasi_albert(300,m=3)",
     [](rng::Rng& g) { return barabasi_albert(300, 3, g); },
     0xa37bc151632c3069ull,
     {0x33be9a52d778b7aeull, 0xcb2d7348a6132132ull,
      0x14c6d690fd15ae7ull, 0x703cdfb79a5238dfull}},
    {"barabasi_albert(20,m=1)",
     [](rng::Rng& g) { return barabasi_albert(20, 1, g); },
     0x9a4660c30ab21d6dull,
     {0x4e2c2b8875fe6de2ull, 0xe76f8892ab24530cull,
      0x6055a960d6af5012ull, 0xbab998a1e9372260ull}},
    {"connected_erdos_renyi(200,c=1.5)",
     [](rng::Rng& g) { return connected_erdos_renyi(200, 1.5, g); },
     0xf52f43b312cfa4c1ull,
     {0x4d05769aec8ba5cfull, 0xb294c9e5b7cd0ef1ull,
      0xfcf26562beeaf227ull, 0x61566d7fe7205c8eull}},
}};

TEST(GraphGolden, RandomRegular) { expect_golden(kRandomRegular); }
TEST(GraphGolden, DeterministicFamilies) { expect_golden(kDeterministic); }
TEST(GraphGolden, OtherRandomFamilies) { expect_golden(kOtherRandom); }

// --- Differential oracle for random_regular's rejection loop -----------

// The pairing model's stubs before the shuffle: vertex v, r times.
std::vector<VertexId> unshuffled_stubs(VertexId n, std::uint32_t r) {
  std::vector<VertexId> stubs;
  for (VertexId v = 0; v < n; ++v) stubs.insert(stubs.end(), r, v);
  return stubs;
}

// The reference: the first-collision pairing attempt random_regular used
// before its self-loop scan. It runs the shuffle step by step, tests each
// pair against the partner table as soon as it is final, stops swapping
// at the first self-loop or parallel edge and then only draws the rest.
// Its graph, when it succeeds, is the sorted partner table.
std::optional<Graph> reference_pairing(VertexId n, std::uint32_t r,
                                       rng::Rng& rng) {
  std::vector<VertexId> stubs = unshuffled_stubs(n, r);
  std::vector<VertexId> partners(stubs.size());
  std::vector<std::uint32_t> count(n, 0);
  auto pair_up = [&](VertexId a, VertexId b) {
    if (a == b) return false;
    const VertexId* first = partners.data() + static_cast<std::size_t>(a) * r;
    if (std::find(first, first + count[a], b) != first + count[a])
      return false;
    partners[static_cast<std::size_t>(a) * r + count[a]++] = b;
    partners[static_cast<std::size_t>(b) * r + count[b]++] = a;
    return true;
  };
  std::uint64_t i = stubs.size();
  bool simple = true;
  for (; i > 1 && simple; --i) {
    std::swap(stubs[i - 1], stubs[rng.below(i)]);
    if ((i - 1) % 2 == 0)
      simple = pair_up(stubs[i - 1], stubs[i]);
    else if (i == 2)
      simple = pair_up(stubs[0], stubs[1]);
  }
  for (; i > 1; --i) rng.below(i);
  if (!simple) return std::nullopt;
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1);
  for (std::size_t v = 0; v <= n; ++v) offsets[v] = v * r;
  for (std::size_t v = 0; v < n; ++v)
    std::sort(partners.begin() + static_cast<std::ptrdiff_t>(v * r),
              partners.begin() + static_cast<std::ptrdiff_t>((v + 1) * r));
  return Graph(std::move(offsets), std::move(partners));
}

enum class AttemptFate { kSelfLoop, kDuplicateOnly, kSimple };

// What the full shuffle an attempt draws from `rng` pairs up, read off
// the finished shuffle, independently of either attempt's early exit.
AttemptFate classify_attempt(VertexId n, std::uint32_t r, rng::Rng rng) {
  std::vector<VertexId> stubs = unshuffled_stubs(n, r);
  rng.shuffle(stubs.begin(), stubs.end());
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (std::size_t p = 0; p < stubs.size(); p += 2) {
    if (stubs[p] == stubs[p + 1]) return AttemptFate::kSelfLoop;
    edges.emplace_back(std::minmax(stubs[p], stubs[p + 1]));
  }
  std::sort(edges.begin(), edges.end());
  return std::adjacent_find(edges.begin(), edges.end()) != edges.end()
             ? AttemptFate::kDuplicateOnly
             : AttemptFate::kSimple;
}

// random_regular(n, r, rng, R) against the reference attempt loop over a
// grid of streams: same graph and same final RNG state. The loop makes R
// attempts at r <= 8 and R/8 + 1 above. When every attempt fails, the
// reference hands the stream to random_regular(n, r, Rng(state), 0),
// which goes straight to the repair at r <= 8; above r = 8 that call
// still makes one attempt, so the hand-over happens before the last
// reference attempt (which failed). Near-complete degrees (2r > n - 1)
// are left out: there a stalled repair draws a complement with
// max_restarts attempts, which the hand-over call cannot reproduce.
TEST(GraphGolden, RandomRegularMatchesFirstCollisionReference) {
  int self_loop_rejects = 0, duplicate_only_rejects = 0;
  int success_after_reject = 0, repairs = 0;
  for (std::uint64_t stream = 0; stream < 520; ++stream) {
    rng::Rng pick = rng::make_stream(kGoldenSeed + 1, stream);
    const std::uint32_t r = 3 + static_cast<std::uint32_t>(pick.below(8));
    VertexId n = static_cast<VertexId>(pick.range(
        std::max<std::int64_t>(6, 2 * r + 1), 300));
    if ((static_cast<std::uint64_t>(n) * r) % 2 != 0) ++n;
    for (const std::uint32_t max_restarts : {1u, 4u, 64u}) {
      SCOPED_TRACE(::testing::Message() << "stream " << stream << " n=" << n
                                        << " r=" << r
                                        << " max_restarts=" << max_restarts);
      const rng::Rng start = rng::make_stream(kGoldenSeed, stream);
      rng::Rng actual_rng = start;
      const Graph actual = random_regular(n, r, actual_rng, max_restarts);

      const std::uint32_t attempts =
          r <= 8 ? max_restarts : max_restarts / 8 + 1;
      rng::Rng ref_rng = start;
      rng::Rng before_last = start;
      std::optional<Graph> expected;
      for (std::uint32_t a = 0; a < attempts && !expected; ++a) {
        const AttemptFate fate = classify_attempt(n, r, ref_rng);
        before_last = ref_rng;
        expected = reference_pairing(n, r, ref_rng);
        ASSERT_EQ(expected.has_value(), fate == AttemptFate::kSimple);
        if (fate == AttemptFate::kSelfLoop) ++self_loop_rejects;
        if (fate == AttemptFate::kDuplicateOnly) ++duplicate_only_rejects;
        if (expected && a > 0) ++success_after_reject;
      }
      if (!expected) {
        ++repairs;
        ref_rng = r <= 8 ? ref_rng : before_last;
        expected = random_regular(n, r, ref_rng, 0);
      }
      EXPECT_EQ(actual.fingerprint(), expected->fingerprint());
      EXPECT_EQ(actual_rng.state(), ref_rng.state());
    }
  }
  EXPECT_GT(self_loop_rejects, 0);
  EXPECT_GT(duplicate_only_rejects, 0);
  EXPECT_GT(success_after_reject, 0);
  EXPECT_GT(repairs, 0);
}

}  // namespace
}  // namespace cobra::graph
