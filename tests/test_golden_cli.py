"""Byte-identical CLI output over the acceptance scope.

Each entry pins the sha256 of stdout for one in-process ``cli.main`` run:
``pieces``, ``poset --format json`` and ``orbits`` for every (type, delta) in
``conftest.SCOPE`` at J = {} and J = {1}, ``orbits`` also at J = every simple
index (where shift classes are not single elements, so their order shows),
plus ``verify`` and ``verify --format json`` for A3 flip and D4 tri. A changed digest means the
command's output changed. ``verify`` on B4 id, outside that scope, is pinned
on its own: it is the command of the ``b4-verify`` benchmark workload.
"""

import contextlib
import hashlib
import io

import pytest

from conftest import SCOPE
from flagpieces.cli import main

# (type, delta, J or None for verify, command and format) -> sha256 of stdout
GOLDEN = {
    ('A1', 'id', '', 'pieces'): "458e8efecb68d9e5927f9aa481a6fabfbf86cb064bcb0e0ae6d2b99ffc53b80e",
    ('A1', 'id', '', 'poset --format json'): "e9e56dbbcfafc308e6e657a51fd236e5da21a3dc1753c3e662406b508c9e063e",
    ('A1', 'id', '', 'orbits'): "8e844b01f2797790434797cafe0ecae03e2c524d62dcdce999131db2d11c588b",
    ('A1', 'id', '1', 'pieces'): "b47b91d3256ff5563da856fdac608bb6ae3a8dd61d412bea90c1a1aee4309987",
    ('A1', 'id', '1', 'poset --format json'): "568d5cd77607d27440a86403cebd5cc9851b0f7f3749d8fac038e5fa4d3a3e74",
    ('A1', 'id', '1', 'orbits'): "8cf923d3ce799171d0e87b8a2600e873af00506cc5145d491d98d0d8820c8cf2",
    ('A2', 'id', '', 'pieces'): "6896a33f64df177a345e7f9461ab1f838425ded554b2d17a457ddfa19d640ea0",
    ('A2', 'id', '', 'poset --format json'): "6f7d7fb21c641ce444341d04c680e50f4af1e466e4ced55ad1a11926748b7a20",
    ('A2', 'id', '', 'orbits'): "d6cfa400114616ac3595b6f05065980a810afc24a8a65764ee92daa4d1380e10",
    ('A2', 'id', '1', 'pieces'): "92c5e26e3beab6630cd47bdefb123f3c71b5a26acc3c8e9669642cca25504140",
    ('A2', 'id', '1', 'poset --format json'): "d85e37d1aa6319d0d85c16e450b508946ddf2eb7b1e2418e74249e8c86376a66",
    ('A2', 'id', '1', 'orbits'): "74865f28de9749607fc28e99170ac7c4f87abf91c665120b77ee381f78ec25b4",
    ('A2', 'flip', '', 'pieces'): "9e3a62a56098673597bccac627a60c6b1007c57d119f67c98b26be0b5a2ca691",
    ('A2', 'flip', '', 'poset --format json'): "4b7895c96348678b39855b619afd5a73d74a270628194fe229db1536106b2d87",
    ('A2', 'flip', '', 'orbits'): "a311582dd01cd18aea0da3d552107899b0ef34b80daea0c0a4c9d554e54b295d",
    ('A2', 'flip', '1', 'pieces'): "6466dfe57ee4501a0a306bccdee13122c221177e5bddfeaf8c58901f01bdb479",
    ('A2', 'flip', '1', 'poset --format json'): "599285c6b0e39b9504b41a686452955d7cdbada41977f7d2fe9bdae704c62db1",
    ('A2', 'flip', '1', 'orbits'): "08a965c0638bed50d9da05609a6c6ca8369568318575f75bb709ec5e799da61f",
    ('A3', 'id', '', 'pieces'): "64bb1d0b1c2a42689639fc405e5a490f8023a8fcbc360b5f0680d3a3327324c5",
    ('A3', 'id', '', 'poset --format json'): "0b0a424239e676b4f7b2bc78fe5969a793c8a1376bb42be4ec161e78a4c5e498",
    ('A3', 'id', '', 'orbits'): "3db9a8b658b648c7d0fd5141334e2c198fdfe06cd12e7db5467630b7869d4f4e",
    ('A3', 'id', '1', 'pieces'): "02d4881a9619dc3ed6c1beab1abac5939a0f166f85b505e649152e06b88d0518",
    ('A3', 'id', '1', 'poset --format json'): "bea456958f4830e7462c1edb9343280df256b9fbc8457fc524728775819a034d",
    ('A3', 'id', '1', 'orbits'): "bc418d23f29b28b3704935c401eef08efa8cf6b5622fe20c9f15dbdf060ab4f7",
    ('A3', 'flip', '', 'pieces'): "87a55ee6c03f038258b7862d2bdbff55f88e6a79920532c25ad1fd80e93804dd",
    ('A3', 'flip', '', 'poset --format json'): "191ef137318beabe571c7ce6166f964635b971e598da43070300eb6b1a646aad",
    ('A3', 'flip', '', 'orbits'): "8ea7f9aeafc2cad64a19389bec396f491ec49fcb987d5abe3c1d338e07d00e81",
    ('A3', 'flip', '1', 'pieces'): "f4f89d114a250d702956105d9ed06c985e3e77f7429802ea19c76ce5d52e43fd",
    ('A3', 'flip', '1', 'poset --format json'): "082537dc2a61140ee3f75a1d53739429bc125d3083dfeee2637ad91218a59f40",
    ('A3', 'flip', '1', 'orbits'): "c7e42da53d6f46d5696424c65fe97ee436c39c167bcd84e230771901192b16b6",
    ('A4', 'id', '', 'pieces'): "f0fae8b319073b9f0d9dca78a48630749e7f1c54c80e524d85e3b23a549f1c8a",
    ('A4', 'id', '', 'poset --format json'): "6f2d2bcce8d2f27283f89146e1a8ff593edc897531483e92caa872ff1ab91e0e",
    ('A4', 'id', '', 'orbits'): "d0cb89d2fc3962adfed56bfb3f35eb7bfcf1918d2972889392a36a499a51a2a6",
    ('A4', 'id', '1', 'pieces'): "a033a80c5a80e1ab33b2d17c6edf490e5a0a374c440fc7779d5cb8d4290b295e",
    ('A4', 'id', '1', 'poset --format json'): "be29eb777a646d24f4b67e832258f282027c468085f2f812b4ec89ec3828a253",
    ('A4', 'id', '1', 'orbits'): "025ac528fc5c07aa1dc4737f76c861cc6c54076ef4392f600ffed27fe41569bc",
    ('A4', 'flip', '', 'pieces'): "eee9d903cf38c336facee71ffaa54ba577742aecbbbc422257a18e0a5f6cc4e8",
    ('A4', 'flip', '', 'poset --format json'): "d80057b2da61a3f4bdfb690f968820de21152f5cb6b5377d0c9dee69fffbaf88",
    ('A4', 'flip', '', 'orbits'): "2b52c2441f4a553d7f779fcc95255aa5db0f6b61392f7c2ea916b578a65b9d1c",
    ('A4', 'flip', '1', 'pieces'): "4f3cd51fff4bbc47c4cc0e2713785e385e2a92e7ba91ef70f8d5fb2b900f8835",
    ('A4', 'flip', '1', 'poset --format json'): "fd80009243247c6c72b27d281f26e1ea8c550b678981d818431cfc7e3f0123ff",
    ('A4', 'flip', '1', 'orbits'): "caba75e57a632f275a1a1d4a37bcaf607025deca6d078295b9c56846b89d308c",
    ('B2', 'id', '', 'pieces'): "5d84c3f30d51ba9204911b498b444d39ad76ae256f35bc16eac31c5d9a5d2e8c",
    ('B2', 'id', '', 'poset --format json'): "ed418f861dcb9e6e7fb26b6fac25ae04f5386ea7a96ab9017f6b614e1fe6dc39",
    ('B2', 'id', '', 'orbits'): "948a5e762b216a5e9e73ac43e7cc788daf27e9aa3ef8177e359495ce13078825",
    ('B2', 'id', '1', 'pieces'): "ab078bf9c22b3244460f70bc9095df3bf5e5ccaa3d7764f35ee4d98e50595595",
    ('B2', 'id', '1', 'poset --format json'): "7f8b45640a383f25b51d0b89f58389616d422a8c5a5594d010ba0004495ce06d",
    ('B2', 'id', '1', 'orbits'): "2038f6216dc942e40db7cc7bdd9eb62753a95a4b87a20f6a32f4d6900ef23f85",
    ('B3', 'id', '', 'pieces'): "34b6bf9611fae4d91e3b0410b2e95c4f93e0ddc3a65c18b9262bfa6b09ae1d80",
    ('B3', 'id', '', 'poset --format json'): "0e5a63c45d5338ba5392fddcd2ed7829f1b9827e50c2eb639ff16a851910c484",
    ('B3', 'id', '', 'orbits'): "799ca10305df2c8b40d31977aeb249ae8031c96d5ae808586a70e874ac196497",
    ('B3', 'id', '1', 'pieces'): "e2176d14dd966bccaf4c3fb272e159159eab944032fecb60376ffdb60bfe794b",
    ('B3', 'id', '1', 'poset --format json'): "a7e5e44a7cd5c6b13c931ba95dd9449e649e7fa8888fc6c86df41c361aa532e0",
    ('B3', 'id', '1', 'orbits'): "7fd0908bcd914dc0533d73332547d50fc3cee55e54655172f1c824936d2e56ea",
    ('C3', 'id', '', 'pieces'): "6197f79624ebc4200643bbf49ba0f0b39aa44e655a5a8c23f22708fa789513a3",
    ('C3', 'id', '', 'poset --format json'): "27cf6761ec0998d040149ba1593deffa7309238cdea5b0bcebecff449e8967fb",
    ('C3', 'id', '', 'orbits'): "b1b9d3617c04782fa5b8361a6eecae052e84117d1dc454eb7fc5fb45afcbd2be",
    ('C3', 'id', '1', 'pieces'): "b550c8b717407261d76f1897cf3e6ed4967939696a6256fd8f156fe8119cec86",
    ('C3', 'id', '1', 'poset --format json'): "909abc72de73e30806f09902dda1d21703721cf5f08eb4915e3276fc906b0692",
    ('C3', 'id', '1', 'orbits'): "e144546baecbc36c917e698cdc1970a38911a7c1fc63f1535e52be7c40cf5869",
    ('D4', 'id', '', 'pieces'): "fe4af4c7783355f5703a605c7cdddbe6412a424d2d4936acf97fb4756e7da9d9",
    ('D4', 'id', '', 'poset --format json'): "6fbf354f0343b453d7271ef43948eda56b0af4456205fcbd266546934d34d31a",
    ('D4', 'id', '', 'orbits'): "607d8229b12a7c3281bcba52a5a8c71d81bc2547e2139c192d768363ed733bce",
    ('D4', 'id', '1', 'pieces'): "d2c357c41d13db8e6551e7723a58b7cd29a8c3f0d0d0badbecd65ad3f1aff628",
    ('D4', 'id', '1', 'poset --format json'): "50855abc884a3135a7ad5d2e0defedbb34dc88a59dfe3c002ce1a1416e46604a",
    ('D4', 'id', '1', 'orbits'): "9e7820ec85230c5cdd1acffb609eb6e5060563e3a6dae1765fb05fb11f88cbb7",
    ('D4', 'flip', '', 'pieces'): "8b38a68a865e66940d34faebf5cfc2d80113fd620e98c28c438337660b149b7c",
    ('D4', 'flip', '', 'poset --format json'): "53d0b3483f519081d7e5226b89b572e1c3e969c91669eb58cf49bde1125e86f6",
    ('D4', 'flip', '', 'orbits'): "00e362799bc9d9da700c32ec2e08dcb00d1126b5af28686529c43696ac3b4333",
    ('D4', 'flip', '1', 'pieces'): "11748785e13e7ddfb415fc158fcc38ae5e81fbb90073a336d032a7393c18e053",
    ('D4', 'flip', '1', 'poset --format json'): "d1f60e008be3f8422cbc90d62a4ac4c6329593d6908f0518f40662afb7a6be81",
    ('D4', 'flip', '1', 'orbits'): "881b81162f174e06f94893cb3c6a102de85cf1a09bbc3db7a6bbf8f5df814846",
    ('D4', 'tri', '', 'pieces'): "fc17c8af54bf34e9679e1877fbd258824dbd929a6b3888646055ef44cb40d02f",
    ('D4', 'tri', '', 'poset --format json'): "49d3e0c4974232db324ed854012d0746d9d08d4fd14812fbad8bfc091bbb7e25",
    ('D4', 'tri', '', 'orbits'): "80a0f16094c87f7eb5fe3ff20c6fd2a5d1013c27021ccff10e11a9a7737a5f5a",
    ('D4', 'tri', '1', 'pieces'): "8c5525ce5723464ea4945de3ba9f7a4ef8289b6c74fd70a11f1955b37b4791b0",
    ('D4', 'tri', '1', 'poset --format json'): "a4961446c272e4359dde953d240cf6388cf6c004cf41b83600d2af8fc289322a",
    ('D4', 'tri', '1', 'orbits'): "514d2a846314e4ff379922e584a508bc6744d73fc4fa5c68f0fca5756934f5bb",
    ('D4', 'tri2', '', 'pieces'): "355776f91c2fbaa3d68089af1d01dd7d56313e6b8cf4dfa818c8523d1255b634",
    ('D4', 'tri2', '', 'poset --format json'): "e2d58368bdca61a3c361417b04676e973c11fd456766387bc61dd0060067538f",
    ('D4', 'tri2', '', 'orbits'): "0090675295ede9b4e3e21d37a676102d76ca6cfef7a6c2253140f0a6c347322f",
    ('D4', 'tri2', '1', 'pieces'): "c34323fbcf72f951dfa683431760337a1aaec3ea86ce33adedb944918696bb11",
    ('D4', 'tri2', '1', 'poset --format json'): "812a15024b70901d3abe0a83f5daa5a1bc2ef7c148e978fc49edc694926dc46e",
    ('D4', 'tri2', '1', 'orbits'): "4568667367c693e9d4c1c97d6c756da0f0180a3b5f856d66dd3f11d36d70ebe7",
    ('G2', 'id', '', 'pieces'): "0bb49980ba9ab6bf186023abc2246b1225211900a06cb4e45318841f405aea8a",
    ('G2', 'id', '', 'poset --format json'): "4731791bfcbd4587c13c6b2b9320d9b696c1fa846e56f6acdfeb7cdeb633d84e",
    ('G2', 'id', '', 'orbits'): "1989f49e9121702718b8bcda350b06538d7468464a6463df668ea0ed81e256f2",
    ('G2', 'id', '1', 'pieces'): "7c469921c23846583c2fedc2768dab202de8b4f9db97ed8c4563eb15a2e441c2",
    ('G2', 'id', '1', 'poset --format json'): "30de112ee1c4190caadc22f082d76c3f30d277f0a90122e7f7db78d953a79a46",
    ('G2', 'id', '1', 'orbits'): "7ee5d50f416a8f533b909c0980ec761b16fa96d8cb1b07a65dd21b34ecf3f52d",
    ('A2', 'id', '1,2', 'orbits'): "3af7fca9c5fc1141e9d246cdae38ef95fe6d6cf15e37b30a1ea1e88343cb22d1",
    ('A2', 'flip', '1,2', 'orbits'): "54055e85223e00dfa3cf93e728f85467ee4bb2eda9739709f2a77ebd765a01d7",
    ('A3', 'id', '1,2,3', 'orbits'): "11c02828383c2548edd36f496db15402e069845d8efb2a583f28f34329545b84",
    ('A3', 'flip', '1,2,3', 'orbits'): "a24af0498e3e5a8d04ebd85ff26bbab6b1cfd6989148073e3ed822c18835d89c",
    ('A4', 'id', '1,2,3,4', 'orbits'): "6224565bef618747e854aadd27d1917a832c7257bb7427d8dd76f508cb1a9bfb",
    ('A4', 'flip', '1,2,3,4', 'orbits'): "ca6052724194857292c59f37d27604fd43b57fed81e78e9d9c12954429041e96",
    ('B2', 'id', '1,2', 'orbits'): "007c159486a4f981da5fe4ed1de2917d7f673f687bae904dcd5f0b97684956a9",
    ('B3', 'id', '1,2,3', 'orbits'): "7c05cbda5a90d874a0df32e649086787206ed54fa7c3ccdf7391b1890bd3811f",
    ('C3', 'id', '1,2,3', 'orbits'): "c3674f6f60b618230ea163ae4b11ffa478c238c5a50599ab5ee62e42d54def06",
    ('D4', 'id', '1,2,3,4', 'orbits'): "f978e3dfdef656a7a235d0a528022ef60412a06ebb8d534595f384af206265be",
    ('D4', 'flip', '1,2,3,4', 'orbits'): "7a9c281f4f9eaabc8cee28132869b162b13ec58e432c4045215d3ad10be2add5",
    ('D4', 'tri', '1,2,3,4', 'orbits'): "415088c1ad8fdc0d5cc15656009f3e34ea791c175e77702af83f4b94f10e90d8",
    ('D4', 'tri2', '1,2,3,4', 'orbits'): "59d6619cc1f34ee4f4ac4f5674beae4ae10d071413c9d43592ceb92acf7c8bb8",
    ('G2', 'id', '1,2', 'orbits'): "5333c80d6e1bf5b780bac2040941c5537b769bfa20d293bca865b7254fe1cbff",
    ('A3', 'flip', None, 'verify'): "88792459d4625db6a54e4f3a03a527df15864798e0033ee3cb430e7b5ac30cc5",
    ('D4', 'tri', None, 'verify'): "f1ebf3b91df6e4a7e4bf3859697bfecb8903440d3a415300263ed17536a7f89d",
    ('A3', 'flip', None, 'verify --format json'): "df031839ec11a2fcd1340e0b539a705f8672ddde6f07ec4eabb2c4e33edd7b31",
    ('D4', 'tri', None, 'verify --format json'): "fd2cbe19e2cf1b322951dac27df6e3267bf604ac2ea87932912150552b3c9daa",
}


def _digest(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_golden_covers_scope():
    configs = {(label, spec) for label, specs in SCOPE for spec in specs}
    assert {(label, spec) for label, spec, _, _ in GOLDEN} == configs


@pytest.mark.parametrize("key", sorted(GOLDEN, key=repr), ids=repr)
def test_golden_cli(key):
    label, spec, j, command = key
    args = ["--cartan", label, "--delta", spec]
    if j is not None:
        args += ["--j", j]
    args += command.split()
    assert _digest(args) == (0, GOLDEN[key])


# the stdout digest that perfbench/golden.json records for b4-verify
B4_VERIFY = "fc4141cf27c0b25a51c695de908db2cabd0cf29ec60aed8a8304e7d4f85afde2"


def test_golden_b4_verify():
    assert _digest(["--cartan", "B4", "--delta", "id", "verify"]) == (0, B4_VERIFY)
