"""A regression net for the theorem scan past its default ranges: one sha256
per (tag, order) of that order's ``--json`` rows, which carry every class's
size, extremum and sorted canonical extremizers, for every order up to 24,
the enumeration's cap.

The orders up to 20 were computed by the scan as it stood before
``tree_record`` folded principal-branch summaries, and orders 21..24 by the
per-tag ``verify_theorem`` that folds them, one scan per tag and order, at
``--jobs 2``.  Tier-1 recomputes the orders up to 16
(``test_verify.py::TestRegressionDigests``); CI recomputes 17..20 with

    python tests/digests.py --n-min 17 --n-max 20 --jobs 2

which prints one line per (tag, order) and exits 1 on any mismatch; the
same command with ``--n-min 21 --n-max 23`` checks the next three orders in
about 12 minutes on 2 cores, and ``--n-min 24 --n-max 24`` the last in about
37 minutes.  A check ends with the size of the process's branch
table, which every tag and order has read in turn, and exits 1 if it holds
more than the 7,813 entries stated at ``enumeration._CACHED_BRANCH``.
``--print`` writes the table's lines instead of checking them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from treecount import enumeration
from treecount.verify import THEOREM_TAGS, theorem_orders, verify_theorem

TOP_ORDER = 24
BRANCH_BOUND = 7813   # the rooted trees on 1..12 vertices


def digest(tag: str, n: int, jobs: int = 1) -> str:
    rows = [r.to_json_dict() for r in verify_theorem(tag, n, n, jobs=jobs)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def cases(n_min: int = 1, n_max: int = TOP_ORDER) -> list[tuple[str, int]]:
    return [(tag, n) for tag in THEOREM_TAGS
            for n in theorem_orders(tag, 1, TOP_ORDER) if n_min <= n <= n_max]


DIGESTS = {
    ('L2star', 3): "a13c6c2cbace047c9117d591b31922f0ad99cc5c75f7488a9d1246392a12b5cd",
    ('L2star', 4): "573e11336efa9ee090652acc6b3486be77d24b0e164b9ccbbde67a1aae4979e4",
    ('L2star', 5): "1c92b44377236240a763955b6f902bc3c79b1ed5361e0f6d8f47eaf11c0c82d4",
    ('L2star', 6): "e1dfbccb7d22d84e10cfddcf2803a5cfbc2c6849f7a87f07f881fb6e9d87be1a",
    ('L2star', 7): "dc14ba82ab12f9638bd64099b88c111bbe26a06f653f36051cb384caaf3f002f",
    ('L2star', 8): "82f6cb113ef0b22266c262153ef43e7eed38c6e9d439a88baca10a6e52ae42ec",
    ('L2star', 9): "4ea8691669dc89e7f8947e430fd90c344622034c171d2ee8608623f3e6ea54e9",
    ('L2star', 10): "8e812aafff70ee8488924c5733ff5b29107c44b3dbfe866ab60a3fce3a36b5ae",
    ('L2star', 11): "6ef2ea35ec5f7d78b33c52f86424163cb2b82b9c90ae8cc1a4022435ab1faa49",
    ('L2star', 12): "1acf9a687b70a71d86454ff758598f9bbe147fda06189ade47bb5c7ffedc0d16",
    ('L2star', 13): "d520683da68e7ddb2e6cb743eb2a3121b1cced0c1bcd7862f52835e0c61700a2",
    ('L2star', 14): "18f4a881e0f0bf833bc582fff5c0c3abc6894568962090b283a30f23a2be76ad",
    ('L2star', 15): "d4f400bd95df49ad1ea6da096e6732216417cbc127323d03c0b79f121bf2a8fa",
    ('L2star', 16): "763eb3088557e75be4dab92d9a0c70442b745483b82219a059a710a7a23dd9e8",
    ('L2star', 17): "c317186aadf54ac224d7df295d836140ef1f00fde2f290e02f582c8b7115fdde",
    ('L2star', 18): "dfa00977569477a72d49a1dcc851f48e485e6509db5aba705f6d3db2c868e0ef",
    ('L2star', 19): "bd07666e17948d19435db7323c3220fd5208c627e5518315d9eb04143d5c1394",
    ('L2star', 20): "d713fadb6189319af6232da857db7f061cb9bc1ea7dde6a00bffdd0dde763a45",
    ('L2star', 21): "8691c3e1575b32015c9d59c1e7f3b8880ec0754463138939c466a43c5eb43d5d",
    ('L2star', 22): "3a34e7fe7170e8318f45b05bd873391f897933ef9dd3bfa0990aa7984257c559",
    ('L2star', 23): "97577b7831a8745d4cad12d58319f37ad7ef492197faeb9b9252f45ddc45decc",
    ('L2star', 24): "87aa2873d4d08da2bb8527a7459adb11b7c8f11a1eb2848696f251f0196cdce1",
    ('T4.1', 3): "6d26d79e318b8b268428102353e5c5c2e07af8fcaedb9c65a635e35e2ba1ca83",
    ('T4.1', 4): "987ef8cf0ab5a0902b58314adb879fca4cfdfcd7e73b9b6ae5a4ff11f0e2db52",
    ('T4.1', 5): "fd0465e352e71380e6ab71f1d2ec5b754bf70588f5d509d1d67faf0b6b2e09e2",
    ('T4.1', 6): "21bff809db70c55839e72e2026086da34555500b428b90757726c352e10ae326",
    ('T4.1', 7): "e4dde644c8dd9a4cadca8cffd40c5b5a3b28b61f54e2da5c0694982e19ab6b54",
    ('T4.1', 8): "4b828f084d66878d84569ccfffd209266f560d5ba5e9645efd387ee122ad11f1",
    ('T4.1', 9): "e2ee1cb109962135edf5ed235f8e7db0d4d973bb1aa7051984b1e0586efa67e7",
    ('T4.1', 10): "442364cc0be7eb746e6e1ba729ae5323274b4a2a7fa7a98de7fd7e8ceda0c684",
    ('T4.1', 11): "55e68a13f0d0f70ce582aaf64589931d7c8b7682f7863557fd6ad6092469fa0a",
    ('T4.1', 12): "f9aa279d6ecb9464b3cee7da738378b38ea211610a4f4f3a1fbfd5545e00b695",
    ('T4.1', 13): "363c04f07365f6ec84ccdea1bb0f88a46762addebf63ba203d9b24a7a4dc1b27",
    ('T4.1', 14): "25a151a07d26801b8aabc0d61b9b61cce75258c5e15f4fcd569eef23d7a89525",
    ('T4.1', 15): "72f8dba9b8a6c5551a721adea782883a0685b4bf27e18e42d252ed4629f9b7a6",
    ('T4.1', 16): "f5ed00886f81c6ff1378879d1be3a6821477798cd603b7cc630e6faed7e78b46",
    ('T4.1', 17): "d30cd04caef6ff39354aeb5a5c1eb082ef6108d55fe84f93017d44bec5f937ba",
    ('T4.1', 18): "099b69dc0002b78a36c417c459ae14d843e4db26d66ec0cceeb49fc8570df0ff",
    ('T4.1', 19): "2425d8fddfc1b17b124f162a60734441cb1aa5a7a5e1dcf0294c2493e3d7c3f1",
    ('T4.1', 20): "8d2ad16269eff19a45d77e5698eedaf54894998e49d0c7ae8371bb5749f5ccbd",
    ('T4.1', 21): "fbf5e2983e253557c53143c966f1ca0965c87509469cfa2eda82939df8371252",
    ('T4.1', 22): "b14b2007199207462688b886d749411086b97f68eef4c2b386306e3ab34a0cca",
    ('T4.1', 23): "18197d9ccf7bb1008bb6691ec643b24a6d8cb0dd8fd4868b61d4523997258aa2",
    ('T4.1', 24): "98d18336126106d03a116a300ad8a65eef920734ec2c029c6ac1f541a89e59b2",
    ('T4.2', 3): "a71c150474c560bd70caf54f37086a382a84724271f1d4f0f503fd24125a5f83",
    ('T4.2', 4): "bd54979c06e1fff3bd4308d874f5a95258f312e7e8ab5820b10744a9bfb29dbb",
    ('T4.2', 5): "f3597033b474b241f461eeeeea698685df2053611472f430d4e5ea6a0083c4a4",
    ('T4.2', 6): "fb94b1fa071a1a9e79db1b12236b8771fe3f29a2eb5bc9f81dbffe5cccfe782a",
    ('T4.2', 7): "a45734d3db43b6e6987eb11e5bb66563151436d8a3db29737eb21d68155160cd",
    ('T4.2', 8): "923873d4f9025ecd9938c528e3487a062e70840a91308e1dbe208de19b9994c6",
    ('T4.2', 9): "bfa153be53c626953ab86a10234a3b31b553ff2b18daf57df3ce6eddc5e4714c",
    ('T4.2', 10): "522a95a7875a7174b658ec398867d3c560f0bd7b6414c5d2d3af5ad4a6f08ffb",
    ('T4.2', 11): "ccab766da6e54836d019be50bed5f2cf6d57019657a19b2c1b83b82e79e124f4",
    ('T4.2', 12): "6eef4cea2eb360c9a4a1a72da863f628b93825c8666ba71481ce30a89df3a4ef",
    ('T4.2', 13): "1b61c14cff257338c41453a9e0d78ca9b8894026596360d693c2f6d70117db12",
    ('T4.2', 14): "8a9f6ca31892b344b4081fd25808f408c80dfc517e95126a9349c07693a71a4f",
    ('T4.2', 15): "28cfb950361a2244c6f8d90e43d8be9894b14952f34c8f7fc2701d66a5112660",
    ('T4.2', 16): "92047b47f722d729f134c0505e34494240b70c9ff96650b221836ad640b95416",
    ('T4.2', 17): "63977d4debabf72e27355be7e19edd65c32f77ece9c6fc4302662a0e86d58ac6",
    ('T4.2', 18): "f7502bb825493023c5d05012f0ca825293bc95a88b73cc235827ef10a470a123",
    ('T4.2', 19): "e349d1444aae56ea1f7729a7d0fd8a873c723db4750337d15da7c31745e529a3",
    ('T4.2', 20): "f55b715d145ed32cbd5e97b90a2c4ef648261eba19644955c9d0326164f2792b",
    ('T4.2', 21): "1f367bed70b0924e8792868a4161b9caf8b67f90b1faf457cb8c3d33c2d02fc1",
    ('T4.2', 22): "72a6bb457f3fc1ce994e72a52e5935342d92b8052a76182607755b053bb500bd",
    ('T4.2', 23): "1180bd7d2b6ab9b09e19604efc438b0038acf2bb57be63ac0080be4bbb2ff0d0",
    ('T4.2', 24): "8922450a3a6cfdd1f957079285fa87dfc22f8d1bbd1d361e6b5bc7c7fa68e8be",
    ('T4.3', 4): "1c82a0cd083e291ce37df427370faee537f6c4859fa4050baad9a4fc51091055",
    ('T4.3', 6): "a4fa594ee3f0b4ccdf9a455fc1aa8e9d62f0cbbae6a6156872a213fb36890ec8",
    ('T4.3', 8): "7d377ea88b5c4ca42095f020fe4b2069b0cf3e3d13e27b467dc5826ed3a93baa",
    ('T4.3', 10): "61b53470cdd21a073a1f124f0d1b933aefa78fd04112a5fe55617878ee4b65ec",
    ('T4.3', 12): "540f1be7174d921fdb13cd705b6e12118df52dc07c3fcb740ac466bd2458f0a7",
    ('T4.3', 14): "ebbcf429925392501fb509ae8c258f8128438cf3c5161e9a5197643f0fb3f540",
    ('T4.3', 16): "149791d1f721465f99232bc2e9dd8e3755bb6b45645ad4d13c055532bfc4d239",
    ('T4.3', 18): "c59080066ad15f79454bc1cb685ff91c635c97a674cfdcbbcc3faa140c96b568",
    ('T4.3', 20): "44411d82d755810f2f570ca694ef320faf11fdd4d5b866cfeb63fcbfcbed6f11",
    ('T4.3', 22): "c902f86c170da90a28e2d1eefb540dba38e2386b9eb62f4efc056b95444d2966",
    ('T4.3', 24): "49f064154d73436b0ed29d9011d0fb358c56f12bcd40a78de63c9429582d3e44",
    ('T4.4', 6): "570b2052ae45ac7ee24457b4735fc0a9f7994f8bb01e003806f336bf235de19f",
    ('T4.4', 7): "000df7b6180e9b0dc0d9b8cfe5f0b07a3ee06c9e94e45428c32dc6171c151018",
    ('T4.4', 8): "86efc60576fe9c0e46b2c3f0a0b7137bd44d4be25ee6336aded7dabbfc36b77a",
    ('T4.4', 9): "09e9bed854a1d30d0dbb6431a1eebd4775b93358fdfc89675787429802cc4daa",
    ('T4.4', 10): "d3f1a597d1dcd2fa8ed2b1a92ecc5dc25eafd7e3396d18e228b16e024fd7d4b4",
    ('T4.4', 11): "a1be9143e2849b4b9e67d2e5089c0b778318704c6e4b6a7e8635ae6cba8bebcb",
    ('T4.4', 12): "705d49090202a4465f4f0c27e86d80c7be086c50ae1fb6208c8ed7ec24da7ec2",
    ('T4.4', 13): "2566b059eeb0e4e2e4754bf8a8155e2f710cf25cc7033db6dc9b41624625815f",
    ('T4.4', 14): "d434392dc3e3a9b4a60276794cc150a30ad3a567f353918c089690a3ab02f4ff",
    ('T4.4', 15): "a570df21002b6fe660710ba8e8f13ed5e41501546bc5bf175b350859b5186d3d",
    ('T4.4', 16): "e5682d287ed43f05232d30c77bb2d6f276f8e0328ae4c49e8d0ebd93e2ec6943",
    ('T4.4', 17): "03af1e932936f8366eb0703cf1338dfa2be5694a85f87e8df515c909e5aecd8c",
    ('T4.4', 18): "53609109c866b0e51590d68b90e5cc9109c9887099ebd5e2f6c1c66716893feb",
    ('T4.4', 19): "bd8ceb948b39b978b37eb35ec46e925a6c8fdb71f638ae296b1fc2cc88e936ca",
    ('T4.4', 20): "a0e441799ca2efa5eb0771fdea18c0969f47e3d54f189f9348b9ad4e524187c2",
    ('T4.4', 21): "63d22ffa5f6611d7b7ada42f4f226e71097adc00a7f62bc3c12af04494daaa6c",
    ('T4.4', 22): "09a83d2bf6f34181e3c27ec82c32a7d6867ff6401e5951591e87ebcd9205b67e",
    ('T4.4', 23): "d1b55e2bf58efbe40f60f9360c9412dfc4c2996d7a1a8c03f9dc0e083aed62c0",
    ('T4.4', 24): "1539e3b5e2e0fe287dc26e927de9f6f4b49635280038a88cc9acc393a6e0967f",
    ('T4.5', 4): "62caa912bbcf4dba87d41f7baf74d4b6f659d58493afc2166f894f40d632c833",
    ('T4.5', 5): "184e38b3450464de6508903894f10d75da33cda2d4d1ea6249b21b70480f1493",
    ('T4.5', 6): "fa63031b871a2542187c13675c5840b07d8a476c3d65fc27606a26ec813c954f",
    ('T4.5', 7): "61df00e2a980d64558f2d81ed2651d8d9a2946f9636997d94127692a3d45153f",
    ('T4.5', 8): "f2eedafdd9913b96298930305aae9460b95fcf6fa654c62cb02d6ad105c08d53",
    ('T4.5', 9): "082c476923ed9b6ff31e1a7c7a0ee8f5c1a9032134998a9b6c5996739f3c54ba",
    ('T4.5', 10): "1937c69f2d0a00544fd908ed7d58b7f2c5489d28ee29661ffc4c616f022781dc",
    ('T4.5', 11): "6ecf295efd5120b6637a28ce3d69a0338fb5095e7a4de0471d734deeee32b011",
    ('T4.5', 12): "84025114d456353704989a290beed9b446671dfde4e951fe5c578a3b6eab5102",
    ('T4.5', 13): "8b80c75ee095aea98f6d374ae39840494f82f0349a763a838df57d39658b52cd",
    ('T4.5', 14): "f2b3573fdbc9e1074d3d55f691146b9ffa25ab23d2f574b5a0bb3946ec5511da",
    ('T4.5', 15): "cdf2e34b6f414d16e48e9355dc1876ffd9c2ee44bc49ab673c69ae965c3312eb",
    ('T4.5', 16): "4e7844080526239b4168b26355af2a337e5bb2258a0f5731c7dd86cde83bae2d",
    ('T4.5', 17): "8c642f3332fb3e3f0cb44a14e7cee2d0e9c680f7b214d2fd192a96a595f5f7f0",
    ('T4.5', 18): "bfa87bc927cf1640ed9e59f6129411849d85f67731dde1c785476326e4a79074",
    ('T4.5', 19): "a0356090d394d7acb16b7ce67a1aba436c2350edaa7253c99f75ced4245cedc1",
    ('T4.5', 20): "cd19a1b8786a15558c0234f92d4dd2f71fe8abc4e576461dc8442ec980c63315",
    ('T4.5', 21): "a8fdb3414ec2a7b371dbc052c197684be789f74f804fdd304d83cc0c88d5187e",
    ('T4.5', 22): "28a84af2cc34799fde6cc85f1ff2a66517ff6f70fe8cf7c557ae1942c1c039ce",
    ('T4.5', 23): "479cb51db6dc29f8d42e4d313cffe2d3b7c41d05a4682a142e09deb7f3fce51b",
    ('T4.5', 24): "a7d076915c77784c03d892c5933508d736352acefd86ef6e69be8ec0c89f6db8",
    ('T4.6', 4): "4118a4bccfdb1a2c599bf543aefaef4019384a4aa78639ac063286bc8a2d4db9",
    ('T4.6', 6): "5fd33f58604579c1b4f421cbf35d83187f02f40995ff54fbe9a90147e17f7f76",
    ('T4.6', 8): "a026caa3dd025e90f572d2b5a4977164a24e57617ee1b264b83f86b386a58a2f",
    ('T4.6', 10): "7e15338b2e7d7683d71863840c8da62eb3542ec0c3f561830d0ceb7ae5a89cbc",
    ('T4.6', 12): "1fd1e04a235491e19d379c9e91ca930d74cec0e07432039f08e717c815d3820e",
    ('T4.6', 14): "f43eb2a5ecf05c6f581f80c70f4cc56050b740d8ac31ee584431be7225265464",
    ('T4.6', 16): "f4a8376afa7b28031e7cafbab69b4c088996eead4513b5f05824a1ce393c6d49",
    ('T4.6', 18): "5c8e4ceefc8ab8af42b0c16937c207851f069300af814584bf466ba2872fc768",
    ('T4.6', 20): "679b9ea1997041cd7e977a913c7fe781d7c4610ecd9f4705fb11bc51b52023ed",
    ('T4.6', 22): "2785b1852c9b232e877aabd97462b7c7c0f64acebd73f2b65dbcde3a1313b5fc",
    ('T4.6', 24): "e54e86aab713e401e013913dd785a13466fcd441be3837596a9913639115efea",
    ('T4.7', 3): "b8538627d05b06afbc92cf0564b2c8a4d111e1641c45b39c8ac6ebf0aa8b25d7",
    ('T4.7', 4): "d7f91d8cb7e64512efd3c01254449f3e1f0867cd4443bb30fb564e727b4c1abd",
    ('T4.7', 5): "84170f18398f92c99aef49045f4887da6941ff69f8bf541da54c4cf4868b15aa",
    ('T4.7', 6): "bc2f7a2953694cb78e2e0d30107a2032ed8f1c352982ceca6186c8b620bd5189",
    ('T4.7', 7): "e53fb13734a757aa0792ee388296a65058fc3b581799afda6354f93be5937457",
    ('T4.7', 8): "1a0ca39ec486178dd1a6ddf356ad358b05c3836fd8505f24c1ca3365f507e573",
    ('T4.7', 9): "5cb16a0cba8db0245d9216819b6b68f176e994040c4ddca135057f8a8b454ba5",
    ('T4.7', 10): "ee1eff33b5bc4205a60223fa0d55e61ba9806d1f103f675247d5099aaedc48f8",
    ('T4.7', 11): "2216907ded0c0b94305e2a98e770afadcd533da733611a379403e10e1db55928",
    ('T4.7', 12): "c6ad3ac12f18ef4528b081edabaf690a6b0e738330e2176929ac05abafa72134",
    ('T4.7', 13): "8e53e65fd7e092d2dc6781613e91932eb3d15ef882df2acf28b31cb3d65624df",
    ('T4.7', 14): "e1e8f4fa3a3623d3f5c422bceab457ad1de9f0cbc0e356e4e45c53297d083664",
    ('T4.7', 15): "c959d1100b1d7c716be3a3c108e308c0c922fbfe18c4f9ddd614074947e54471",
    ('T4.7', 16): "b8236d9c053eef8204affc7176aa2c2bd22001eaff5561e262e64b90b66b5f01",
    ('T4.7', 17): "5c42adec65cd0d021acef26f35ef2c882891eef8c412722c79de5a21343aac77",
    ('T4.7', 18): "ff72dd80bcf4555409c19b9420497b8f1b9e1c604c8e2f2493d27191880214f4",
    ('T4.7', 19): "000ee0fb9462c7afc84d2312aef45d0fa34f42b6b911aa8a99f11cbd04ba0382",
    ('T4.7', 20): "ad729bb21fbf3fa5737b63a66e6389c88abbee67cafec3e0b56e296849e3d951",
    ('T4.7', 21): "69aefc0d38ff3e3e5d7c97b527250129e6e1a78c6804ce59ba4bdddff26cf49a",
    ('T4.7', 22): "73327c41382f8d2a34d02999677b1663a7b14e011c956e72fb09b83a022fe0e3",
    ('T4.7', 23): "a57ef37f6dcaee98a5aca8a0b3ebc63e6314d69ea9e527fcddeed745423b14bb",
    ('T4.7', 24): "7845d763182687800215f659273d26299bc7d90297c10078a5ce998c476e988c",
    ('T4.8', 3): "37d4c1e623159dfb9669c05ce7b015963cd90975c4c06d8e6fd6f9bbb9e39a2f",
    ('T4.8', 4): "77a94758ee854b074007854491cfbb73d83ea08e135a2ea83dc30e421029fa65",
    ('T4.8', 5): "9960593fd21894a51bb9e71806b013678c5d68c66b9b4e0b8cb7c9c701021059",
    ('T4.8', 6): "0c37a858b2773a21c9cdf9c7c7508c2c9add34330a921e33bc429cb1fd444010",
    ('T4.8', 7): "6d2de30832ae2197f9565830a544fb31c72282290ed265d7617fa09147276400",
    ('T4.8', 8): "77354470cfe40ef1fb1d6aa2d0fa64a6c0d9afe66acc68b75abf420bc9ea2acf",
    ('T4.8', 9): "a40a88a769534faa727ba2100c7731af30917b733fbe4f44e16f40b20ece80aa",
    ('T4.8', 10): "ab28e3115ef20986fdb756b4aa84f2ca614160f98ff696365ab42e148d29bad8",
    ('T4.8', 11): "a826122af01da8ea1414b0448b92a3f60bf5e428f186bfd3306e7bc6eadb777f",
    ('T4.8', 12): "6dc92573ea5082682a9c899defea109d75834af890f5f4d97c2cab72f33b2583",
    ('T4.8', 13): "23030635fa280a433db165c6d42fd00b0d3424ebc7f5bb3aa18616a81dc1bf35",
    ('T4.8', 14): "1981099c1a7737f24e4ec7b395d978187f522a03e1a9e27350f0126045774f94",
    ('T4.8', 15): "ea5a9298056d0fc699a04734ee2f51201561ff006df79d98654d355b52356c3e",
    ('T4.8', 16): "7e8b0064797ba95e8ddf4f04960b51e2c13dbcc8a931a1bf5b23d50c5088062f",
    ('T4.8', 17): "220f23a774b80b377640bcb2013b5f12bddc6d0dfdf8b23cb0d9fbe07da732e8",
    ('T4.8', 18): "9a20dd24dbb9221e22941872a3b5c7eef323505a7a4ef31b5424b572f53f1e1e",
    ('T4.8', 19): "a0eec165f24f499aa028106488c08813f2e721a6fd7b0bb9fec775dbb8abf24e",
    ('T4.8', 20): "60ed4ea6cb7e9fa0f3b5f5645943f4582bddf2a53f7d9bf7127d250809f5e4a7",
    ('T4.8', 21): "6316fbd7e05c91b81ac99dab997a0016a6520e103e6bec3bcd2d0bf7c2159e38",
    ('T4.8', 22): "d22033391255f061f3badb01e1e9b15dde6444ef1285ba59cd3eeeab85a10b42",
    ('T4.8', 23): "3c7e22bc95733ab4bff6c4331fc8c25e046ee651ffb93013389f73e719a28104",
    ('T4.8', 24): "ea6248336524237b4b6f4558bf532a62fd00fccf3ac76bbc3d0ebb0d8169f8e8",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--n-min", type=int, default=1)
    parser.add_argument("--n-max", type=int, default=TOP_ORDER)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--print", action="store_true", help="print the table's lines")
    args = parser.parse_args(argv)
    bad = 0
    for tag, n in cases(args.n_min, args.n_max):
        start = time.perf_counter()
        got = digest(tag, n, args.jobs)
        took = time.perf_counter() - start
        if args.print:
            print(f'    ({tag!r}, {n}): "{got}",', flush=True)
            continue
        ok = DIGESTS.get((tag, n)) == got
        bad += not ok
        print(f"{'ok' if ok else 'MISMATCH'} {tag} n={n} {took:.2f} s", flush=True)
    if args.print:
        return 0
    size = len(enumeration._BRANCHES)
    bad += size > BRANCH_BOUND
    print(f"{'ok' if size <= BRANCH_BOUND else 'TOO LARGE'} branch table: "
          f"{size} entries (bound {BRANCH_BOUND})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
