// Known-answer vectors for the RSA/bignum stack, frozen from the 32-bit
// limb implementation that preceded the 64-bit Montgomery kernel.
// Key generation, signatures and verify verdicts must stay bit-for-bit
// identical across any change to the arithmetic underneath them; the
// modulus sweep checks Montgomery::PowMod at every limb width against a
// plain division-based square-and-multiply.
#include <gtest/gtest.h>

#include <string>

#include "src/crypto/rsa.h"
#include "src/util/prng.h"

namespace avm {
namespace {

struct KeyVector {
  size_t bits;
  uint64_t seed;
  const char* n;
  const char* d;
  const char* p;
  const char* q;
  // For keys of 512 bits and up: RsaSignDigest(Digest(i)). Below that
  // the modulus is too small for the padding, so these are the textbook
  // values Digest(i)^d mod n.
  const char* sigs[8];
};

// clang-format off
const KeyVector kKeys[] = {
    {256, 1,
     "935fac92bd6566c24fea2a29dc56f0554f65a21d014a4206db6bb063a361ce99",
     "3aff461ac86f5b9fd6562be2ee2e6faf58fc957ddcf5823bf8f214445c25ae01",
     "ea81632e4e0b2697241a5f8b9f233289",
     "a0e1c342ab6854c1ec0711794930f791",
     {
         "42ccde4993d724fb79e2e67b71574ec33b12ae59a4e89200d29b3e4fcebe4bbf",
         "0e9719abdf1ad3690a89f16e44ed645a237c91cd9cf45a2b2e38c6319d1ae649",
         "8304adae6b31f7214e5c9df893398a26890f74ebbd8eaa7be330636ad3c2cddc",
         "04a2e555c47a0ff1f2e570b0af004490edaab5119df3aba26f3932add1a4226a",
         "509b78c669a288c2ebb77afb54a47ea1df0534c4185106bbcbe09657e1057822",
         "40455df5d76262df9a18d94bef45d907e6887efe1c07f1c4365713159a02fee9",
         "3bbbc5b75bfbed39587de77ac4fff2d3bf45d0187e9e726c86f905a5d0b691b5",
         "10226ef04a47197e4b872d375fb69c95b56418697ea720b1fba7b61e82da15d3",
     }},
    {768, 2,
     "bc5c8d4b03cb1b69599607598a7431978c7ad7c7f186b73c83f5eb42f703048c4c4d58ab190672a5856a19a594b70f069e2940c43bd2339bd514c45b32827181335251e48f13ec503c364a3a9d559283b4f1fa659fd85001f2fedd0cf8cac1d7",
     "a655908c0ac883e74f2e164572e75297c27d0429d356245f732469e153a1bd956b17ee52012259816344236bbddcbd8d912eaf01a41988b01438b9394eeb68779d033bfc853722e3ac2b0d8160111c5a0126011047b4eeaf2307a53c948fed91",
     "ffb04086e05373127498a08c1329f2217de9f98395b65f653e241f89152427436b2958ac4a97be6a56e6e3530aeeb6cf",
     "bc974d09e72caf29b4cf81d900fd15ab99a21c87bc738337d51c5b013c73bbe09b2cfa38049ebf4ddcde1c5c72da8679",
     {
         "6eb4ba4aefde2d42071d040eba56b08c941bb417698087b69536a6d071b0b7b5c342285c9eb577eb7653f704319bbfc788f86fba02a0e1c638894b5266b09d7aeee48992933b3da8969f5b865ebbb340444403b63573982ab9ffcc46c59ec79a",
         "122fff5d3d7e39c7346f9e6a738050746adcd04313e6c775591673af0c317731c902bef7d093ba9479d1e4f36dcb279c0e11a90ba47ac3e64e8dc45691af355efcd3819918c0c1f2c18584867b10ea41572e1b56735d5af3c162dc48ecd3ce3f",
         "0696e11ec5784d7e04e230c2a02c37d36eb8d453d034d52bef5dc10a1147e28aa612310bb3cde5dc7e64d21ad5e430a22aa5817ba1fd6bd8902e0fe6776c890195592f26a9e9b4ff43fc5f8a881a093667ede46081eb43e8faed1714d14064b2",
         "8a21f5e281cb2019af3e9b405f444d5c9c7f40e6c8fe08f899bcaf26374c6283963db216d6aecae1a4fcaefa0b9be4fdd9b2e78c288097b9fb7ee18a4f5f0596c544c64dce1f994c8afe2764cdca935f0b1270974efdcaf4fb83d174d1c86fc6",
         "4773cb425ac50893692f31558b98acac7b878cc42c256efef48b20ab695fc984538ad6f1cc4e50ad63c2b208107c02d1171f5f67bf0be5c3f744ccbaa0ad70057e449258bbb6bc525af86e1636a43be89538ee0a4d0f0cb3b7399da43b4828c1",
         "855394143b2ba4df6d6d4803a36c913360b2c7ec724dbdddb013c190cb41ce3fec74f476010f181bef6eb559839f868b00e9386733bb5b64fd7ef93cf7fbb113abe979a06c1ad076bd0f008ab21488bf58dd3f7b0baa74e90110c6fbbeeeee91",
         "8ce10a151f8dc085add5617a2c3f67986d9c291cae5fe35e581c19995f7397e3b8e8c2bb758272df5a3a96e40c1174c4bdad0ecf19280077cbc7371b4e1612a933aa3fc7d9ba62880bd04c879bd472c2641a9997a211324777c810dd73e94a85",
         "208012b996f1fe181c24be7a97293c2657c2b663ffa1eb67d36c3b0a419b54a6cbbc2dc8cc6af82cdb6479fd2958a61fea11f50a5e434b97c1fe0e331fe7aef8dd92b4845079fd06520fb54fdda95cfef0f5d8b8f1c8ba8dcb50d6845671eac9",
     }},
    {768, 3,
     "8cdecdb04288e02e2f4d12cb3e15216ebb2e15ba9a5ad3fe04f7ef3cb7f09d948bfd1225345f885677b1664b464cbf9dc390b0dea03be216643537652950b6bf773f7a459092a9553f684df1ae385eb61f87f23ef878170c68eea777dea0787f",
     "55509ecbf00fcb8dcd11e59ef7b37e72fca3f57ef4faab473da516dbf41ea2a113832a5923f5f3b1427e4b10adbbcf940b0bd93408e32b9fb01673e83f7e1298c10a747e0ec2c5789ade43c405ee9dd547c99695007f1c82a81be1401f7998f1",
     "cb5d04b6815fcf677e84a90de8f04d8cd079e9498f0f0d15fa99ef50489c7964dbac35e3f990df54ae850806705346f7",
     "b154f55b46058c6b08b618b1062540a7c6b2706dc77925b0c39f990ebc7d8d051ef26440e48c6917b43aee232ba350b9",
     {
         "5bfc2e94de5c87366dfb3bd8f3643dc97f697bed53f5df6314ffe213116b4628483cbbd1295c5b50b781d51f8af7299d490ed3ad93020d8631aadbe618e69e3828eeececb93e21d7cfba3fd6242992df62e6327a5a73c743b8bb79ce438311d4",
         "3066ac647fc99d9539596203a77003cac25e54f1a0ba5adeb80f79a6e4c07b4ae8c24e91616df6383c4ff7b4cb29995caf666bbad404f9294aa2e956502a492448ebc5522c34ee6c85d08f79041a340312852ae5ad363812477bfece42adf914",
         "7e14d58350ce673102c735aad7091374b425bce2f1f7ef11978782fd452d5727e0820c5695c065273bc8674d68b59fc55506e883be3a9cab2d551fb149c9278462ec55a364bc81b9a85439b3e8fe3ff5bf637e6eeb134f29d72e6e134d3ed768",
         "04ef771efb077bf8290c8a27799341151e65df8c041aa42882963acb58fa43f78d667926e7ec7eada47d4ba15b41deb00d64aa673e0d6a595fb52da9940a95704505eaa08eb82c41af34d1942301c174429cabda6b7f4343c7a677f8b881301a",
         "3b381710c2ee468ca93ad359a76ce055fb95be0c5bd0bd1f78955f6fd03f4f480d24030f0c3a1cbd67b618186e661002e144ef2e5f09ad163900d33ce1310e75cac75c71392c8b3137a767cfc64af0ca07c65d6f52f06b6758b49a77615d1059",
         "596e323980573d4dba8ba9fc3d92a6a887cc1746f25da453decfc5de20d95368d91fa53ac44980f824c6c9740e4ac55e88043e5a25778dfa4b7a2a6615e4423dd4a8b30305beacf41c44b576fa4138e3a1f16637d60c77cc194100910aa64c54",
         "25b83d3aa13e57e4e894a7b946400fb855edda5c513d8ed74f22d0128a8386778b0a446227fc16167acedb6a31e1801da55072c0d8e3d5729a35e996cb7de2ba9f4e92c41f6b7b5181fe47109b85a9f35fd05f4fa636dc190751e2e068a2aa7d",
         "30df99a091c510b5c9a05ea2d40d61f9844b5f4b546a9c69b3997f752e9c71944ed603c6211768fe2feddaf1ec073b29496cecf38afe7bd141df53443e219ee28f91452868f5970c57abd110da4137d31709ec7334dafcfb85417dcd349cafb3",
     }},
    {2048, 4,
     "ed8ec45db426c5e9d61f978a634c0d18b47da17c29e1fef3c0ef505d5ac3d8379b927d3e057d842c4d1af1354f095844d3ebfa19e77732b0ac6f122e6397abf4d00577dd05a996f86f7d2ee4edd7aba57f09989fe01d0500538b8c8df3505bb54ad0bc2992603ce1c3148054f3e27d6f2797e1663ec938f7f5a4b11d3aec24a0508d45434e7c94cd1ec6d7a1f3fc5fadd901735eb2dc74520c4b2852cb9f4b3749ce616667bdc7dd38faf8c5da8a8cb139537483d12114c716730528bae098718bf4d39b36dfd7038754d853fcb28c59593e062e2216b08b2fb9e72660789711eb204ab72a490c2450f6beb676ed2478ca9fdf3f86f40805ba2598846968a0d5",
     "290cfbb7e992adaeabd6c7bc1d4e9e10bfd7d9d8f7efdabbca825053e184684fabad93c0ecf7f4a82726d9b9c98fa6d635fcd83a33ba706301592c3e21edaac462521f956d0e124d9a0e7ad50a98b34ba4f9468b9211d1b46dbb76ad6cf75cf1a61d0df6ed197e4bd10730e9fd3f0d47f10298ebaf3bdc8154cc81e2b834e85b0a7482b2828583602697b5ceb4179eff8b4a17cb53492bf52bfe4bad168e64e8ec8c2faebb50192131fddfb70b9647ed008280c0e66dc42642650e65a3afcf9895af2053ff8fb948bcca0b8b311c9f32f1d4bb0b53383a7dab09b311e05b6cc622cf5a3564c0efe7d0c6d96eca1233eba3ba813892dc6158f0341d748c44d73d",
     "f903090a844fc987f349164a18f12c9c35e3557bfe0c075d9e0455a43469ac230298a895eea705ae26bc22863d3794ecb82376f4498221bddb60ee0a5a52c6fb5cf4d825aa25329d7e6c38cacff6b6b0a323e6689955686bf34438764ce697f85c915f5d69bbbccc533e117accbd825419ffa71b7016beca7553c600b2d00adb",
     "f4397129756dc90a379685688a508101b783f3215d7af9472a6803ae3f0fedb6dd53828abcb430fc7a968152e98a50c774be4e009291b662fb79dfb895e9f2ff91cff258bb24a3cce86866a251b266bf2e0cfe5678778d1d47bb309b84dbe95194c379a76693c290f667adc2da613a86b668d0e155d7b2ad0c99a26579655a0f",
     {
         "7682c3f9482258d5a6d9848c0970543e4c614f20b44134d12a909629396793f7360fc9c6b1b1bcf8a3ca3249254d328a21cd38f791c9e2b470266a5a49137d6d70b5a985ef64408822e7aebc7ddaa92ffd44766cf1fda98ff73bfa9257996f08b522d8d7d4927aed916d9d12a447e1ca000992c1fc3cb01064e257904fe55bb00f37de0f188fc2119753db3060f7912fba85383d3fce244e12eb77a28bedcc35afab015961c92bf47e6e2ecf6e8c668e553f8a882a30fc29f78e883fb88dca43c50c4f7fc22aad016db5b5cda2ff4b96da750ed2d866edcf121228a01a33610323434e28366eb5f2219ba5230f799e541d6bcb5b16e4211db7cd5575f32ec836",
         "a075eef6966ddd554590d0fb22b6c407e8309dc0561607c719903a139c298987ce8ddbcc2495a8293fae69309c8ae26f5cbf3fbc6de44e610db165b04379d22d51625343f24eb0b1376a0d89a35bca4f918a63a6a2b7b4f661b048e23e56dcf677bfe1ad44d947c4ef5bfb69ba543d880e16dd9bc473b3b196d17351a50b890e989572d3f8e92eb7b2ca29de64390920637032b4f27157a04fee8a2a453e6b6c05104e941f6b11418cd586f562191e00bde8a5b4d3914eec44ca3239e9e46cb9ec8a67bf9c0c02748f07654e2e66c25525b95941b4ebbbe6faf65c129de0ad1206d64104ca73de763067e149468917ce26dc75b07f8e10a9073036d2422a2190",
         "d2194225f28520eaf6fdf02f3b53bc9a1605d852c4719cf140443d8be1830d6931a2ffcfe21152acc224340b45cdc012add549ddb1cb57ed6e5390da572771d1a0e57347844a8119a573c9b28638105024c343699ded1049b1514fb98fdcb1870aaa45c232ba0e48e06f759d1a0c7bb5aaa530fe48ced7e6a73565268eb94ba7698ef437d8f1b60a4e0136abd24bfd28fc91491ed6b236044dfefb0d7f3196bc6346d45840f9dfe5ad9f8c1e34520c04f52342e66f64d4cd8dfe508bde33d3b4fe26e773106cee7e2f51dabd95210b2ddfc3fb6c9558d01a9012c22d00884bfd3b801f03bcd62287c0b8b03b43abb48a6675595f59540a67ed92f51d5de586fc",
         "263f0864500d28051173bce475f8b5e7490b27520206ad6617d2899b63488849ca27e8494e6ae60ecd1a38d80c8a6817ef87c1f4ab9dff494930dce42eae95ec8563e76913e3e7d062426a77ed3d388ec41a8a9c6ce6dfa84953aa4435f1be1894bccd2c1316cddb4cec8da506c6cbe67bf394e672ed489078ec0fd6c5387ef21749d2156a506a4c88a3c0f9069b2a0cfb128d997dfaea8a1814aedb840cc2196879769c80e8cd888a344f1be079bc6c1e3a776f36d8a5d0a28674b3103a2846cbc7a7a009a01490f96d03e9c7f2a645ad0b87d96b06767a60b33f87b2a1128b9ee458f3fd1c5972a2e3f3c20a65e22fb8eebdd494b7fcb654d86a101f731f23",
         "4609413faeaad840104a18f30bc6fbfa53db181ce66aca7c656f106319aeb92fbf49832be80819439e19030823732726c6a2cc1772bfa81abc7167fd26e0e76169fc01d3126d6d8e009adf03c17557741f953cb96c27282dfa638eeb813358e272631178925607a17dbb3f8b807bc896319494ad6f234f877e63d59c58fe10018e57b42fcc59e96bf079c0b6cf100bfc5c03bc41d677ac495b901eafdcb2d40a6f8b454ff24b1e1520c7310d12909cf425dac85afe1c39438bba94f310299799d1822213a8f7a06138106aa16501b2cc59bf3a52b8e48b68e6b5c0a7463db2b66c9e999bcf3369c04dd49bea0729e84fc16ce59681b6da093167fe64e3f6a1f3",
         "87413e1412fec458f22a77460c6263cceb581ca711243aec86b15171df16c2fcf9a44012add6934cabe294f9f9b1dc33c74d6eadd9ef79c45a9d072ebaa3b167e14ff418557716e85ef069c92d8f954a7909d2a7b7c04f7334508991df40e94e14d5dfe7766b771b87b18ce30d5ab796b339fa564ce845a0b926fe2c21b46c415694300910e45cae6953c4ec4a4676c6e64e9edfff381b15b6cb7f8865ae5e63434d13234ddc6dc1a9ca9c60e687cc02d3dd630c5b4293a253e037a6c57b2fad1b9365e12a9dd5e32002f2544194b2126110ecde5f818e5512f998e6fdfc103140ca723066311f2bca55dd56471cbfc507974eddc0485b740265b57172d6c6e2",
         "6734f028bc8103e23b354d9e570d8324fa9ec07b3c5c094b6bd18a20ff07296d4d51a5568a02b90c736fc989edb7b45ba3c94bc84a6ef547e6f0923fc2286074082caa0d23a4e36f6a8b1aaf45bdb85062d98cd6bd0c1fc0bb09edfe474be3f9e373c9af7c88e9bec4db63d2b7753f944d99ce5d34aea176c795482708b89b0846a906880fd6f92a4633e3566f08914924956147087ba88d8ba4247fcc07c22b1da4093a1591507d6ee7303bc340ac2ba114e71867dd4171a23b9a6c96160932a75dd5bed808dd8adcea28ab2f1211b59f9a8f94ecb816a2795e4354363af65fb76c56283c8a2e311868a5422a06b368a0c851be239f212ece6717230b596ccb",
         "06a702a6f88642147c1619e2a4c56f1fec30e7283ae6c6a1b11b733480dd7eb9fe9c22f88e7a3d9aa19355ddaf693e127e40847f0d2d8290e0a410b759129f07f29f2c342c5276f04117c8d291c7419c3c4f4ef8a05a5b3c13976d0cc3bce750e3ece8239875945b182ed04dd5702da19ae8131da302f613065400e4a6bbc3c0827a58af76db26dbf7fd8cee056b5c778e417a09100b9cb3a01464550a46cf1d982ec0e97e9d819162e0c25423e266dfc3b2f6172cb648470f6cb3119efa24725c59267ea26c8c7e8abb5b7f17279cc34ad267e3e3a9e586528885fa760f9aca139bdd814fd560c9289b8657be27fed011ed2785e775ca923dbd88b4d8737e3d",
     }},
};
// clang-format on

Hash256 Digest(int i) { return Sha256::Digest("rsa-kat-" + std::to_string(i)); }

RsaKeypair Generate(const KeyVector& kv) {
  Prng rng(kv.seed);
  return RsaKeypair::Generate(rng, kv.bits);
}

// (base ^ exp) mod m by square-and-multiply with division-based
// reduction: the reference the Montgomery kernel must match.
Bignum DivisionPowMod(const Bignum& base, const Bignum& exp, const Bignum& m) {
  Bignum result = Bignum::Mod(Bignum(1), m);
  Bignum b = Bignum::Mod(base, m);
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = Bignum::MulMod(result, result, m);
    if (exp.Bit(i)) {
      result = Bignum::MulMod(result, b, m);
    }
  }
  return result;
}

// The arithmetic sweeps run first: a broken kernel fails them in
// milliseconds, where key generation would search for primes forever.

// For every limb count 1..32: the shortest length with that many 64-bit
// limbs (top limb 1), a half-full top limb and a full one. Moduli of 32
// bits and below are left to the Bignum::PowMod sweep below.
std::vector<size_t> SweepBitLengths() {
  std::vector<size_t> out;
  for (size_t limbs = 1; limbs <= 32; limbs++) {
    size_t top = 64 * limbs;
    for (size_t bits : {top - 63, top - 31, top}) {
      if (bits > 32) {
        out.push_back(bits);
      }
    }
  }
  return out;
}

Bignum RandomOdd(Prng& rng, size_t bits) {
  Bignum m = Bignum::RandomWithBits(rng, bits);
  return m.IsOdd() ? m : Bignum::Add(m, Bignum(1));
}

TEST(RsaKat, MontgomeryMatchesDivisionAtEveryWidth) {
  Prng rng(13);
  for (size_t bits : SweepBitLengths()) {
    SCOPED_TRACE(std::to_string(bits) + "-bit modulus");
    Bignum m = RandomOdd(rng, bits);
    Montgomery mont(m);
    // Bases below, at and above the modulus; exponents short (the public
    // exponent regime) and window-sized.
    Bignum bases[] = {Bignum::Mod(Bignum::RandomWithBits(rng, bits), m),
                      Bignum::RandomWithBits(rng, bits + 40), Bignum::Sub(m, Bignum(1)),
                      Bignum(0), Bignum(1), m};
    Bignum exps[] = {Bignum(0), Bignum(1), Bignum(2), Bignum(65537),
                     Bignum::RandomWithBits(rng, 1 + rng.Below(80))};
    for (const Bignum& b : bases) {
      for (const Bignum& e : exps) {
        ASSERT_EQ(mont.PowMod(b, e), DivisionPowMod(b, e, m))
            << "base " << b.ToHex() << " exp " << e.ToHex() << " mod " << m.ToHex();
      }
    }
    Bignum long_exp = Bignum::RandomWithBits(rng, std::min<size_t>(bits, 256));
    Bignum base = Bignum::RandomWithBits(rng, bits);
    Bignum expect = DivisionPowMod(base, long_exp, m);
    ASSERT_EQ(mont.PowMod(base, long_exp), expect);
    ASSERT_EQ(Bignum::PowMod(base, long_exp, m), expect);
  }
}

TEST(RsaKat, PowModMatchesDivisionForSmallAndWideModuli) {
  Prng rng(14);
  // Single-word moduli, odd and even, and moduli wider than any kernel.
  std::vector<Bignum> moduli = {Bignum(1), Bignum(2), Bignum(3), Bignum(4), Bignum(65537),
                                Bignum(0xfffffffbu), Bignum(0xffffffffu)};
  for (int i = 0; i < 8; i++) {
    moduli.push_back(Bignum(rng.Range(2, 0xffffffffu)));
  }
  for (size_t bits : {2049u, 2112u, 2304u}) {
    moduli.push_back(RandomOdd(rng, bits));
    moduli.push_back(Bignum::Shl(RandomOdd(rng, bits - 1), 1));
  }
  for (const Bignum& m : moduli) {
    SCOPED_TRACE("modulus " + m.ToHex());
    for (int i = 0; i < 4; i++) {
      Bignum b = Bignum::RandomWithBits(rng, 1 + rng.Below(m.BitLength() + 64));
      Bignum e = Bignum::RandomWithBits(rng, 1 + rng.Below(96));
      ASSERT_EQ(Bignum::PowMod(b, e, m), DivisionPowMod(b, e, m));
    }
  }
}

TEST(RsaKat, KeygenFromFixedSeeds) {
  for (const KeyVector& kv : kKeys) {
    SCOPED_TRACE(std::to_string(kv.bits) + "-bit key, seed " + std::to_string(kv.seed));
    RsaKeypair kp = Generate(kv);
    EXPECT_EQ(kp.priv.n.ToHex(), kv.n);
    EXPECT_EQ(kp.priv.d.ToHex(), kv.d);
    EXPECT_EQ(kp.priv.p.ToHex(), kv.p);
    EXPECT_EQ(kp.priv.q.ToHex(), kv.q);
    EXPECT_EQ(kp.pub.n, kp.priv.n);
    EXPECT_EQ(kp.pub.e, Bignum(65537));
  }
}

TEST(RsaKat, SignaturesBitForBit) {
  for (const KeyVector& kv : kKeys) {
    SCOPED_TRACE(std::to_string(kv.bits) + "-bit key, seed " + std::to_string(kv.seed));
    RsaKeypair kp = Generate(kv);
    for (int i = 0; i < 8; i++) {
      SCOPED_TRACE("digest " + std::to_string(i));
      if (kv.bits < 512) {
        EXPECT_THROW(RsaSignDigest(kp.priv, Digest(i)), std::invalid_argument);
        Bignum m = Bignum::FromBytes(Digest(i).view());
        Bignum s = Bignum::PowMod(m, kp.priv.d, kp.priv.n);
        EXPECT_EQ(HexEncode(s.ToBytes(kp.pub.ByteLength())), kv.sigs[i]);
        EXPECT_EQ(Bignum::PowMod(s, kp.pub.e, kp.pub.n), Bignum::Mod(m, kp.pub.n));
      } else {
        EXPECT_EQ(HexEncode(RsaSignDigest(kp.priv, Digest(i))), kv.sigs[i]);
      }
    }
  }
}

TEST(RsaKat, VerifyVerdicts) {
  // Public keys rebuilt from the frozen moduli, as a receiver would.
  std::vector<RsaPublicKey> pubs;
  for (const KeyVector& kv : kKeys) {
    RsaPublicKey pub;
    pub.n = Bignum::FromHex(kv.n);
    pub.e = Bignum(65537);
    pubs.push_back(pub);
  }
  for (size_t k = 0; k < std::size(kKeys); k++) {
    const KeyVector& kv = kKeys[k];
    if (kv.bits < 512) {
      continue;
    }
    SCOPED_TRACE(std::to_string(kv.bits) + "-bit key, seed " + std::to_string(kv.seed));
    const RsaPublicKey& pub = pubs[k];
    for (int i = 0; i < 8; i++) {
      SCOPED_TRACE("digest " + std::to_string(i));
      Bytes sig = HexDecode(kv.sigs[i]);
      EXPECT_TRUE(RsaVerifyDigest(pub, Digest(i), sig));
      EXPECT_FALSE(RsaVerifyDigest(pub, Digest((i + 1) % 8), sig));

      for (size_t bit : {size_t{0}, sig.size() * 4 + 3, sig.size() * 8 - 1}) {
        Bytes flipped = sig;
        flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(RsaVerifyDigest(pub, Digest(i), flipped));
      }

      Bytes at_n = pub.n.ToBytes(pub.ByteLength());
      EXPECT_FALSE(RsaVerifyDigest(pub, Digest(i), at_n));
      Bytes above_n = Bignum::Add(pub.n, Bignum(2)).ToBytes(pub.ByteLength());
      EXPECT_FALSE(RsaVerifyDigest(pub, Digest(i), above_n));
      Bytes all_ff(pub.ByteLength(), 0xff);
      EXPECT_FALSE(RsaVerifyDigest(pub, Digest(i), all_ff));

      Bytes longer = sig;
      longer.insert(longer.begin(), 0);
      EXPECT_FALSE(RsaVerifyDigest(pub, Digest(i), longer));
      Bytes shorter(sig.begin() + 1, sig.end());
      EXPECT_FALSE(RsaVerifyDigest(pub, Digest(i), shorter));
      EXPECT_FALSE(RsaVerifyDigest(pub, Digest(i), Bytes()));

      for (size_t other = 0; other < std::size(kKeys); other++) {
        if (other != k) {
          EXPECT_FALSE(RsaVerifyDigest(pubs[other], Digest(i), sig));
        }
      }
    }
  }
}

}  // namespace
}  // namespace avm
