"""Golden digests of whole CLI reports.

Each case runs one CLI command and compares the SHA-256 of its report
with a digest pinned here.  Reports embed the input path, so bundled
fixtures are read from the repository root as ``src/nhomlie/data/<name>.json``
and transported copies from a scratch directory as ``<name>~.json``; both
paths are relative to the working directory of the run.

The transported fixtures ``<name>~`` are ``transport`` of each fixture
through ``random_even_invertible`` with ``random.Random(TRANSPORT_SEED)``,
so their coefficients are dense.  The copies ``<name>~mixed`` are
transported through ``mixed_change``, so their tables and twists carry
mixed denominators (homaff1's twist is over 6).

The corrupted fixtures are pinned in-process, as the ``repr`` of their
``validate`` report (the parser rejects ``corrupt_degree`` before the CLI
could validate it): as they are and as ``<name>~``, transported through
``mixed_change``, so every failure's witness and residual is pinned, with
mixed denominators in the copies.  The same files also go through the
CLI, whose JSON report renders each witness with ``repr`` and each
residual entry as a string; those reports are pinned as digests too.
"""

import hashlib
import pathlib
import random

import pytest
from conftest import mixed_change

from nhomlie.algebra import transport, validate
from nhomlie.cli import main
from nhomlie.fixtures import CORRUPTED, FIXTURES
from nhomlie.io import serialize_algebra
from nhomlie.propositions import random_even_invertible
from nhomlie.solver import Kind

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRANSPORT_SEED = 2016

DIGESTS = {
    "center-abelian2": "81c0653008f91dd1fb902f97ae73eae1c3c5d25d33720922a9dd22fa184dce3f",
    "center-abelian2~": "549355ec5dff219108566921fb63081746ab0f1cf5cd23a623b33a00ead6ef04",
    "center-aff1": "41054893d9f6015f1f8cbfb2b8b2c9ea8fa29e3030fa7140c1115c5d0f65c4cf",
    "center-aff1~": "778841db07b4b48a93dd7473e2f00c2f30ed1e14e32715f320be59f2cb6d81c5",
    "center-homaff1": "add157782e6bcf98163e4b36e890e031f23aeda89823f4a3410e8d0b8a0b26fd",
    "center-homaff1~": "31fc25495f777531369e56e3aa0a6a9ed00cfe8ec6ed64d622e7bc292476c439",
    "center-super2": "68070dbc0982fd78de8e9c5353df3386ffbd8aad3297d240646b86ed4473a484",
    "center-super2~": "56bc4c03ad091faa59432840c3db267c23bf4fd6a24e0b32a78584c637cbce87",
    "center-threeLie4": "c190d45adfdb72423882c5ed22ab3fe08ad2b345e907df8d4ad1661649866669",
    "center-threeLie4~": "384890911bf4baedf15532ece529071b267105057e928db37876bbf36a5f4cfa",
    "decompose-abelian2": "a6062db66bc9081eb5f446d1a124b8e40ae4d6a94a0b462c0c8e5005b0ad8850",
    "decompose-abelian2~": "40c62c0859265a4fea95182cc7e368235c714dfe74d40e5f8b56f9e14c96dd97",
    "decompose-abelian2~mixed": "1df8f9dac7eb305126e51f075662da92db6114f585f759f76c8bb7bf33c84592",
    "decompose-aff1": "9d8c4447401f540cbb2681c996f5081346e689d445e284eab95fdbd52fe597e7",
    "decompose-aff1~": "69110e6684f9b7e6cd8d5246de5966fe70e6a18057b4b675ecfe3e9e1282a8ca",
    "decompose-aff1~mixed": "63faf9787d5ee0c65de1db8e1696dceacc41e830daccb95ffbc0f8284713ccb7",
    "decompose-homaff1": "b6f89497b9bad19adfe0e8e9eb79ab44eb918b670edf3a6608ac11a7174634e7",
    "decompose-homaff1~": "332f8da594e011a0d37a2280cf013459f4137378e2d1715456e4eafb0965c57c",
    "decompose-homaff1~mixed": "a45134b6db5398eab6768aecc3422b7db60555bb7a1c8fe9055370838e8bf160",
    "decompose-super2": "d6996e89c470135f9a6dec085bcfd5c6466e3dba40454170632ea9e376bec871",
    "decompose-super2~": "c0396147d9eda8764751ef7fd2d54e9096492256fbfc7635867565a2b0ea645a",
    "decompose-super2~mixed": "f5f1642fc8a7f86b92b7b77447f4e9ff73bd630716ce826eab72f1f1ef7a0faa",
    "decompose-threeLie4": "1f1e4068b260add931d35106aaade07a8c2528b4182c3c5dbd2090c780545757",
    "decompose-threeLie4~": "834736c94bf3acbf6a06d6d0383dfa70460497226c4e75f0156c41d53c3ae151",
    "decompose-threeLie4~mixed": "a4e9b2b663662a365cd35b3c6f815faae368f0165a1478fdd102345135ff264d",
    "extend-threeLie4": "347d67a27dc4adef6d01db3bd8ce611ca5719738e2ebdb7043a4bef865b5cba1",
    "props-abelian2": "11466554d832bcf53ae1b170c01291b28a4a6347b22e79100830dc36d6302bb7",
    "props-abelian2~": "c047e865707caffee3e91d527ff684bae68b63df1228ab82d00a0eb050946962",
    "props-abelian2~mixed": "7d756d8c0ceb559f73b569d691477b22b0cd7a5f485f9eaa78b86fd32b398e8a",
    "props-aff1": "62ce1700828f841b194ee334d71225913963e1d8a1a23def9f9279cc361c9edb",
    "props-aff1~": "36f324a01b47e0e45c07863c14b16bbcdae5656f41a0802742ddc207ad0f58d7",
    "props-aff1~mixed": "13ee96b99288398943a1d0ceeec16c676e085ef15871785721eedc501000feb6",
    "props-homaff1": "b875698202b75b828916859e4bb08dea9332711e92207c533392e26c7fa96401",
    "props-homaff1~": "26ebde5f9a3cd716a9ea0216f0b54b7999ab6239daaef9a361b76f242d427cbb",
    "props-homaff1~mixed": "ef665d3ab76d463f791b59f40c888755020654cd7d9c3e78dd7f086630db65ce",
    "props-super2": "3bcb26ec89ec1ecfce533a4eebf2ea5d57b11d3df9d8ff180f52c1269ed4f341",
    "props-super2~": "62d3c30cdb1e741e61773ba2cf8e3d85d334265361fa4151c6205f06bc8b4be1",
    "props-super2~mixed": "26ffd180d69e82e7b78ae3c2f2d7318defd02edc1b3f7bc0348f07a0fc011cce",
    "props-threeLie4": "6b9f179b05e2268362f1caf513cf1f5718e636158a1f6f861e53e12668fe207d",
    "props-threeLie4~": "de7aba1b818431fbd37a4bff987f72b43125eb57980719fd602bd1ede41c5c7e",
    "props-threeLie4~mixed": "5d9e9647cd8d4e52a383c099f596e1f3302fcc937466aaf4854f1731265ed486",
    "solve-C-abelian2": "f0afcc1b16f7a24dc344dcf1a27747215642c9abadabaeaf299abe76ffe8d402",
    "solve-C-abelian2~": "10908b8a9bc690380b0a61d8228ace1d91302b54e21d44d471db8cb490279393",
    "solve-C-abelian2~mixed": "efa3cfa9e5419a541f1ab07af68eb5a2688ea96e46edfb439136e4b444446a19",
    "solve-C-aff1": "4acdd7e9bd004626933187b794608c132733d1e3ab2a4017936bc2b431f53235",
    "solve-C-aff1~": "42f3bb50aa1d900f07e251b95d1dae7d5ce6a36225b7e02238cc1b03bbefc544",
    "solve-C-aff1~mixed": "6c13020240473e5ad9559823b8855d0754ac64489ffd9334cc050c92b41637f1",
    "solve-C-homaff1": "086309eb34903cb0002b30062e50569d756f2a326de359e1e0eeb348353ef3b9",
    "solve-C-homaff1~": "05f8c70d87e2038a1144088a4129f7ef7599206d1df5efdaed01225464701c60",
    "solve-C-homaff1~mixed": "f5f864bd73e9d0d5922174b882338ed6b7918cc7db28681e8807c92914c2637e",
    "solve-C-super2": "be17dc92227f023eba0b1617d977d6d62bb316dde3c4236e996499f015cd6d7e",
    "solve-C-super2~": "ff15576da744855364fd8ef13cd08157cb0c1235beb1162a63b2297ca702da77",
    "solve-C-super2~mixed": "14863edc3cc5602fbb143dc63a0305dab346386cc5641dd5c02e399a25051f06",
    "solve-C-threeLie4": "f460b0cf01aa520ffd7987e52a9718050810953328b8a8686ba63fe264de5fa2",
    "solve-C-threeLie4~": "3aa26d280853546e63b470543cdc990ba9ba2a6b77aca890d3ceaf06cfc5528e",
    "solve-C-threeLie4~mixed": "94fdc39f40fd7129f251323b9bca7b2981597ac92292c479568e3c1d2cffd4ae",
    "solve-Der-abelian2": "d5864b99d3a4afee934c0f104aa4b55aa5b658afeafcd53734a190e37a1df5e4",
    "solve-Der-abelian2~": "21d979c3a60431a368cfbe903e613e7a5d288e396c8971254395a52c1d84b491",
    "solve-Der-abelian2~mixed": "949eab5a26cfdf4dc3bc8304ed0fdf7fee587b81c6191ca8f7974f4490b9ced2",
    "solve-Der-aff1": "1404b2a635392d8d3f6417e5e0d42e1f375e31527198ff37cf4502670eca9604",
    "solve-Der-aff1~": "118940348bc64b0da9030a8eb82828154c8e9c4503774e68f2296352cf29c54f",
    "solve-Der-aff1~mixed": "af6646500771724c2f560544febf39c7dc37b4c63865f15d71e5aca0c2b2df75",
    "solve-Der-homaff1": "6a69515e8b78996d11f3e9e561df3b9c2ecc02e7379e2ce2548576eba9e1a2c9",
    "solve-Der-homaff1~": "b0ab00ae9ba31307bc8ba475307e3c73ddc60f91c6484656b250e5291a3b5305",
    "solve-Der-homaff1~mixed": "a944a3c504338baee1b6404ce14acad7e47d7d17f34d53012e2d749cba92bd20",
    "solve-Der-super2": "6378f5d8b6831d4a738f7477f543b2996ee0b0ae9355bc7b77c5bebd84100d43",
    "solve-Der-super2~": "d66a874d05bdd2a717514905f3101706164099483f62e3c493162045e067bb31",
    "solve-Der-super2~mixed": "9609f2f0635ce52cbc759b09c95f77f40f8b4a90bdb9ecf639f125b4631f6fc4",
    "solve-Der-threeLie4": "5cd8c0d0ff192950612e436cc22de1bf73440134a0f15070d13147ad6331ecd0",
    "solve-Der-threeLie4~": "7ab67f3215cb85f8b26ad2d8820bf4135cb504943f2eaec97b974ebc6d9fb719",
    "solve-Der-threeLie4~mixed": "5732cd25825b9171453ba30765f40cb55bf4e9e90ad75660b6d30cb2c6ee8b7a",
    "solve-GDer-abelian2": "1cba8e7847150588ca505e13f80650aa2b70f405d03046f28d804f760f599183",
    "solve-GDer-abelian2~": "e50d68d7907fcc4e5d8cc3950fd0cc40d11c53205a8d7d148de8601b6dedc096",
    "solve-GDer-abelian2~mixed": "05f4156524f8421bbcad3b9bf3e522e2d606e9fb7d7eadea3f52f79475318784",
    "solve-GDer-aff1": "cd8116f62ae1816ce1a2ce8bd00f9d2cc77f477a03fe5f01b13d50fd9a32402b",
    "solve-GDer-aff1~": "a377c3d308c04d651826198c25ec6f9d3c0f38666a100214bc87fd614f370f4e",
    "solve-GDer-aff1~mixed": "bde9c5076e6fbd20e1facc728bfcc745306487b50553c6b99ac96c3b01163de1",
    "solve-GDer-homaff1": "ebcd3b8c5403d015666fb1239afdaf632790519d2693d0c30be043288c5176ca",
    "solve-GDer-homaff1~": "a283cf4277b9debf142849985659538ff1a8ea47139e53349463f371236f5bc5",
    "solve-GDer-homaff1~mixed": "5335e4df9cd69106dd336e71fc503aea072e6ec683eafe20993d58b80aec4f57",
    "solve-GDer-super2": "86ac5337ae9c3c66e3f6f7f31e741ed8e5e8105792a785d35d4c5fe7a569407b",
    "solve-GDer-super2~": "613399cccec5e36c8b9473c31bd83a365b325dab12b15a065207a5bd24ff013a",
    "solve-GDer-super2~mixed": "b46b590a3b28ea31a6abf43a0fe3101f6460b85968d1f93bee6e274e931af21b",
    "solve-GDer-threeLie4": "2f14ba25177a2e091f6cb6c3dc813273d5c0dcc3eef937488e5beaa9af8b99ec",
    "solve-GDer-threeLie4~": "f2587c968303622bf328b9cb196197637b2a70192d737749042e1aeb5c23eece",
    "solve-GDer-threeLie4~mixed": "9c206c855fdb35edae052b706f9cf80c2a83f3fb786e4340888b07ab4db80d82",
    "solve-Omega-abelian2": "410053e508c097762fda7784c5f169058c25720681193e1aa1d7223ec11d3449",
    "solve-Omega-abelian2~": "272e6ca5d90f04900681880482a1ad4a9034c36f605bfb0dc65a1cbf393158b2",
    "solve-Omega-abelian2~mixed": "3596a0fc60ecd3d4fe202505a98870ddfc1a6209c94294169ae46d97af8599f9",
    "solve-Omega-aff1": "09ceb098ebdb1cd21b7ff4bf29179bdcb8af6f2840b2dabb33ad18d3a8dfc700",
    "solve-Omega-aff1~": "5ece869d3d743dc0f49dc123dec73468041de5f6703d3d80d7497c775d9a8ed2",
    "solve-Omega-aff1~mixed": "fe2c4a003e1367f0e9ee9fff1c3bb1fffd0d1e3869185880d96bf9919d3355bb",
    "solve-Omega-homaff1": "3f4bc1f390897405868ccb8be5c9f11f38538236b06ed7f0501f03ba72c2c584",
    "solve-Omega-homaff1~": "c4bdc4dccdf9a85736e15688bca7d911809225e30ca75d206f48825423c6908f",
    "solve-Omega-homaff1~mixed": "bee2ebd35af7fbe4d64a85cd0cd811ba534646fb6646520d70583952e5e5dce1",
    "solve-Omega-super2": "86781c0713e43d922231ccafba3e1cc2e9a66d7979d1db8dffc2e103ec7888f9",
    "solve-Omega-super2~": "e441223472d36aeb8228d7fdcff1a336cac25045914a485865f81f89c772b4e2",
    "solve-Omega-super2~mixed": "7c1c44953b739836c8cf629a9dd267deab4ffad4543c06591cb9e9aa505a073e",
    "solve-Omega-threeLie4": "a314f36f1df91936344d5a5773f676e6096ecf8ff6e04759f53b005281effa72",
    "solve-Omega-threeLie4~": "0617dd6921d1f279cbcde904cd3d463c99f5a90b22e3402c7e26713bb1fd240d",
    "solve-Omega-threeLie4~mixed": "68ab3669c84d14142548e7eabadde9e4f8e56613da6658aaaecd15972d1b999f",
    "solve-QC-abelian2": "bcf474521e961fb1783b91389be7f5db9873fb7b5234a36f65b500dd0bfa3995",
    "solve-QC-abelian2~": "e2898c1389bab2a8c5eba37bb21405371d92b7b40d59bb55041725cd79c84e99",
    "solve-QC-abelian2~mixed": "1119ce93407b2f65d2c9b3d568666f0a20d4be272e2d906ac19dda7d8d5f7b00",
    "solve-QC-aff1": "f10698e08ddda0754c5c43517fccac23d9745c01b72b30f354aa0fc35a9b4214",
    "solve-QC-aff1~": "415664d071a093d72b798fe5c775ed7f3e59214206fc2889dc553b64f4f6472e",
    "solve-QC-aff1~mixed": "c6ac5061bb5436a53f90fc6aefde2bed5649b7c4fca7dfecd4cd9f703580e236",
    "solve-QC-homaff1": "ec4a2b3ca588db878498fc7158f2f55134bc206b4750132579ef70f3a440bc19",
    "solve-QC-homaff1~": "354872d47a9eaffee01365411cfdb74edd9c20c6b5d56d4bdee1a86917a6825b",
    "solve-QC-homaff1~mixed": "d3d759d239f622fc5d51184d2f06a34567af3a53ba5ecb6a69856dedebd055dc",
    "solve-QC-super2": "398ffce66d141d35a0f4d5641ced0de8f4aa2361e7b059c17903977af411715d",
    "solve-QC-super2~": "6d09dae487e4fcd4bd4dd0c45f79f374f167b5ea9eab207dd96e667914b73b9c",
    "solve-QC-super2~mixed": "c1f792a1b7de7f0ea2fb534ed1f16e00f1d32d99ba11561321f65e99ee3a28ff",
    "solve-QC-threeLie4": "7ad570b693e03a62859442bc789525e312818b26ec9be0dc6d49cf1015dce474",
    "solve-QC-threeLie4~": "45d1ff489793b86de67ca86f6a792fcc50e37ce7985b6218a01d3230f8ce1d5d",
    "solve-QC-threeLie4~mixed": "227ede788e8de21c14d316597ed2161511544732c1b966cf47470318837be71f",
    "solve-QDer-abelian2": "93b8d1c330624643b63952cada136ef4e391ee9de618383afddb58219595974d",
    "solve-QDer-abelian2~": "6dd2820619b13c57caa3ed14b428f436c9289dd076196fefaf5b935425d65a5e",
    "solve-QDer-abelian2~mixed": "fd8c5d86e8b77400a7cd03067148776a974f04b205bf3da64058cdff256df11a",
    "solve-QDer-aff1": "010c99463c2ee2c9b0a4476e1055896f8df48047e4b6a1b0f5ce5d5f93d65354",
    "solve-QDer-aff1~": "7eb2354df2ca26d1a21bff3d5ae7bc3aa9a496bd65fe39b5e2d7ec162959daef",
    "solve-QDer-aff1~mixed": "f14757ae0840d6c64a6c91a8da2f2a6be28aec5006bfaf56ebf7d47f72aedfcd",
    "solve-QDer-homaff1": "69cc17bc46f83401c903955e5e54e37d8afb7c4ac54a9c9016f1a9ebf79901a1",
    "solve-QDer-homaff1~": "38460e6baefca34899b5fb3435af6587a7bfcaaf3663addbf1f6409fc33d3db8",
    "solve-QDer-homaff1~mixed": "03ac266e4da15d8b04702425a22af75873b945d743b8b193add5be4b3bfaa9ca",
    "solve-QDer-super2": "1dfda4b63f7f976af0b5a5a978f69a8e080e4ac0b233f291aec05396a66dc41d",
    "solve-QDer-super2~": "9557802d0887f5e9a639fa9360c42c04df5dd2edcdd35f1fd7294c021b784a41",
    "solve-QDer-super2~mixed": "6580664b148b0aafbad5abe8e4349721798e709b93d8396fdf9412d20508bc8b",
    "solve-QDer-threeLie4": "02390351b38b293f80c8b7580c9a6d506b8ed47380b890dc1aae18fd342ae2b8",
    "solve-QDer-threeLie4~": "aed98f4db89e5566e2434386f76eec32e37f1ea9f72ea88f9f94555ebcfd3b67",
    "solve-QDer-threeLie4~mixed": "260acf544edd585e8c59c6bc0ac8ec137308953c1994d4c3eae0763c6e326914",
    "solve-ZDer-abelian2": "19638302272700ff66f053938deaa54648f47cbe321c3f0432914a1ddb1e58b5",
    "solve-ZDer-abelian2~": "bca5289c9845c99c43d9f4267735989bc03b63a5fbeacd3bc5fdc79857af6572",
    "solve-ZDer-abelian2~mixed": "88bcd7514fe4ce17855a91f97faf2a3f450d52973e44f9a7b28cc2eb78476bc3",
    "solve-ZDer-aff1": "241fa62f4b307150552b132eb742532f0f5d9df4d5a7a93e006cb3f6d554d8ea",
    "solve-ZDer-aff1~": "ab69334cb2d25805aac021206dfa22c87b8c25fc0ca660fa9e344c3e5361d14d",
    "solve-ZDer-aff1~mixed": "cb1f0204e8b5ae4b3335611891d8daf9b71615e7bde549556782e2acaa6645d0",
    "solve-ZDer-homaff1": "70221f6c77747ca7f6b8cfc3434be8de1c5da6a3657621d9177b96e690715c52",
    "solve-ZDer-homaff1~": "a119b2f021b42274f9afb9a17752907704b9b4985ed744f7de6033328abbccb0",
    "solve-ZDer-homaff1~mixed": "28e38493229e14ff673026a0a88849ebda2eb1185716ef3581e084b86bf86083",
    "solve-ZDer-super2": "9f8cd3e98127d28fcb4eaf11e5e766cbf5dab208ab9cdbe5fe64079a7e4c2e8f",
    "solve-ZDer-super2~": "bd98197e301c235ace9305e91c6138a1966475c7fba3e71e21fee866dc62cfdb",
    "solve-ZDer-super2~mixed": "0a738bb0c448439cd75c0064b69a6467c9d0df4fd0c662111a3afb181b4c1f98",
    "solve-ZDer-threeLie4": "955ac51c4920671590ad1270be42408216e9671f00dd54e6fd46d8333eae2d26",
    "solve-ZDer-threeLie4~": "1e7da5567c162c281f80046a49838e94a277ef862babe61c502aceb8904647c8",
    "solve-ZDer-threeLie4~mixed": "0e46d6e794ebadaa69a3a8f7bf8653558b465c6d391594c2d5db529296151e38",
    "validate-corrupt_degree": "1e8ab197cdbd7a1be9ff0458afef7f7ac35473f1cba49275361978900147215d",
    "validate-corrupt_degree~": "b79583e3d4a75a24bc8f21b0ceb2c65ae733f2aeecdf373ee3fa9a824966d49c",
    "validate-corrupt_jacobi": "3c12fee1e6a1e3a14e6b521e5c0a4c29a16586a8dc6d86305180fea68dc7a510",
    "validate-corrupt_jacobi~": "e98abcfd21e9cce3f4dcadcd2ab980ec6bc048baf862d0522c35dca1d1a84ef5",
    "validate-corrupt_multiplicative": "c0dc1cc4d3d3397a55a8bb57ea531dc051f2ddae3909a871d8858c2259b22592",
    "validate-corrupt_multiplicative~": "8e4648ed11e36c3b5dae0c39b36a0cfc3497245de56d3e8f4e3370e7ce7eef0f",
}


def _cases():
    """case -> argv without the input path."""
    for name in sorted(FIXTURES):
        for source in (name, name + "~"):
            yield f"center-{source}", ["center"]
        for source in (name, name + "~", name + "~mixed"):
            for kind in Kind:
                yield f"solve-{kind.value}-{source}", ["solve", "--kind", kind.value, "--kmax", "2"]
        for source in (name, name + "~", name + "~mixed"):
            yield f"props-{source}", ["props", "--kmax", "2"]
            yield f"decompose-{source}", ["decompose", "--kmax", "2"]
    yield "extend-threeLie4", ["extend"]


CASES = dict(_cases())


@pytest.fixture(scope="module")
def transported_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("transported")
    for name, make in FIXTURES.items():
        alg = make()
        moved = transport(alg, random_even_invertible(alg.parity, random.Random(TRANSPORT_SEED)))
        (out / f"{name}~.json").write_text(serialize_algebra(moved), encoding="utf-8")
        mixed = transport(alg, mixed_change(alg.parity))
        (out / f"{name}~mixed.json").write_text(serialize_algebra(mixed), encoding="utf-8")
    return out


def _report(case, transported_dir, monkeypatch, capsys):
    source = case.rsplit("-", 1)[1]
    if "~" in source:
        monkeypatch.chdir(transported_dir)
        path = f"{source}.json"
    else:
        monkeypatch.chdir(ROOT)
        path = f"src/nhomlie/data/{source}.json"
    assert main(CASES[case] + [path]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(case, transported_dir, monkeypatch, capsys):
    text = _report(case, transported_dir, monkeypatch, capsys)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[case]


VALIDATION_CASES = {f"validate-{name}{suffix}": (name, suffix)
                    for name in sorted(CORRUPTED) for suffix in ("", "~")}


@pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
def test_validation_digest(case):
    name, suffix = VALIDATION_CASES[case]
    alg = CORRUPTED[name]()
    if suffix:
        alg = transport(alg, mixed_change(alg.parity))
    report = validate(alg)
    assert not report.all_ok
    assert hashlib.sha256(repr(report).encode("utf-8")).hexdigest() == DIGESTS[case]


# the CLI's validate reports of the corrupted inputs, serialized into a
# scratch directory as ``<name>.json`` and ``<name>~.json``
CLI_VALIDATION_DIGESTS = {
    "validate-corrupt_jacobi": "5e29487d957d4fdad19f7743fffe870e805b70b1e686cc9b69559132e910696c",
    "validate-corrupt_jacobi~": "9a7029d3074c31f511eb48f727e7b7400b2f97257b62b0476ecde9c4b462e421",
    "validate-corrupt_multiplicative": "9c96d6b8df064c9055702b2f3a652dddab696f171525de73a03a981651494fb9",
    "validate-corrupt_multiplicative~": "e15b6ada2f2a5bda7b92782c31fe71158f7f37ad0f067798e9775db98273205d",
}

# the parser's grading precheck rejects corrupt_degree before it can be validated
PRECHECK_ERROR = "error: bracket [0, 1] has a component of wrong degree at index 0\n"


@pytest.fixture(scope="module")
def corrupted_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corrupted")
    for name, make in CORRUPTED.items():
        alg = make()
        (out / f"{name}.json").write_text(serialize_algebra(alg), encoding="utf-8")
        moved = transport(alg, mixed_change(alg.parity))
        (out / f"{name}~.json").write_text(serialize_algebra(moved), encoding="utf-8")
    return out


@pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
def test_cli_validation_report(case, corrupted_dir, monkeypatch, capsys):
    name, suffix = VALIDATION_CASES[case]
    monkeypatch.chdir(corrupted_dir)
    rc = main(["validate", f"{name}{suffix}.json"])
    out, err = capsys.readouterr()
    if name == "corrupt_degree":
        assert (rc, out, err) == (2, "", PRECHECK_ERROR)
    else:
        assert (rc, err) == (1, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_VALIDATION_DIGESTS[case]
