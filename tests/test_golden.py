"""Golden pins: SHA-256 digests of the bytes the CLI writes.

Outputs are a pure function of (config, seed), so any change to a pinned
byte is a behaviour change that has to be explained.  The sweep covers noise
{0, 0.05, 0.1} x averaging {off, cumulative, window 5} x seeds 0-3 under both
price rules, 300 rounds at most, run through ``cli.main`` like a user would.
One more run pins a single-node market under cumulative averaging, where
NumPy sums the (rounds x 1) sample stack pairwise rather than row by row.

The predict pins cover every model tag (level-k and cognitive hierarchy with
both responses) on the shipped 2x2 example game and on one 3-player game,
each with and without a ``social`` block, plus one lottery valuation.  The
fit pins cover ``fit_result.json`` of a reduced logit-QRE search with
cross-validation and of a two-level level-k qbr search on the shipped data.

``resolved_config.json`` is left out on purpose: it echoes the experiment
options, so it changes whenever an option is added or removed even though no
simulated number moves.

To re-record after a deliberate change, print ``_digests(...)`` for each
sweep run and ``_sha(...)`` of each predict stdout or fit result.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import numpy as np

from foggame.cli import main
from foggame.games import NormalFormGame, save_game

REPO = Path(__file__).resolve().parent.parent

SEEDS = [0, 1, 2, 3]
NOISE = [0.0, 0.05, 0.1]

DEFAULT = {"preset": "default", "max_rounds": 300}
WINDOW5 = {**DEFAULT, "averaging_window": 5}
SINGLE = {"num_nodes": 1, "budget": 10.0, "max_rounds": 300}

# run name -> (scenario block, price rule, averaging sweep)
RUNS = {
    "gradient_cumulative": (DEFAULT, "gradient_ascent", [False, True]),
    "gradient_window5": (WINDOW5, "gradient_ascent", [True]),
    "foc_cumulative": (DEFAULT, "foc_root", [False, True]),
    "foc_window5": (WINDOW5, "foc_root", [True]),
    "single_node_cumulative": (SINGLE, "gradient_ascent", [True]),
}

GOLDEN: dict[str, dict[str, str]] = {
    "foc_cumulative": {
        "manifest.json":
            "5eddb7dfcb148af63a242ba1c0e29f2fd25805c04565c721222a6cb4d9e002fb",
        "summary.json":
            "5d3bb4f73e33f762f9ee6df7d91915f6e344cfd4400c46cedfd15a84cee949ca",
        "trace_0.05_false_0.csv":
            "9e06912c89aae9bea8adf87bd53db82e0c569949d5d30ccca402966f52437192",
        "trace_0.05_false_1.csv":
            "9e5e47ce3883d7b5840b6e5aadd0f6af8aaab609e6c2c46a78c6a3ea85b9d6de",
        "trace_0.05_false_2.csv":
            "b4ed59f316d28bb7f21811110ec1036de64c47d61daed3fb94a6a315c75f751f",
        "trace_0.05_false_3.csv":
            "b883751e26d2c1c65794feaea6f1d6b45ceafbe99e2ee4ef90b81e9aadda70a2",
        "trace_0.05_true_0.csv":
            "0bc1d78839fdf011bcbf3b9f7b0c0a5c78b5372acc17b48443ffc9dd49fd39e1",
        "trace_0.05_true_1.csv":
            "f2ba120eeccdf42cafc5c52e434397072bbbb5a324505645cd290a45575f53f6",
        "trace_0.05_true_2.csv":
            "7f7895761094e3f70cf0b2a1c677f53a6ce114fc39112ea5b8e9a77e43b0d0e2",
        "trace_0.05_true_3.csv":
            "7bdc6d589ca8e52be26693132e431e72a781e0d0c6b9c8b2a941c1321d4466fe",
        "trace_0.0_false_0.csv":
            "42d91845184b63668ec53d888df2d88e1b52bb76f367174599ca89f8d61b75b2",
        "trace_0.0_false_1.csv":
            "42d91845184b63668ec53d888df2d88e1b52bb76f367174599ca89f8d61b75b2",
        "trace_0.0_false_2.csv":
            "42d91845184b63668ec53d888df2d88e1b52bb76f367174599ca89f8d61b75b2",
        "trace_0.0_false_3.csv":
            "42d91845184b63668ec53d888df2d88e1b52bb76f367174599ca89f8d61b75b2",
        "trace_0.0_true_0.csv":
            "8fb4df3f2e7e27e7de5793d3b3aa849e810b5b1012526cd9a7dd62f220b5cb4d",
        "trace_0.0_true_1.csv":
            "8fb4df3f2e7e27e7de5793d3b3aa849e810b5b1012526cd9a7dd62f220b5cb4d",
        "trace_0.0_true_2.csv":
            "8fb4df3f2e7e27e7de5793d3b3aa849e810b5b1012526cd9a7dd62f220b5cb4d",
        "trace_0.0_true_3.csv":
            "8fb4df3f2e7e27e7de5793d3b3aa849e810b5b1012526cd9a7dd62f220b5cb4d",
        "trace_0.1_false_0.csv":
            "3e56a6bada373fbf77be1788cacbaf9bd2ef7d80c5c33e9d20563c6af5c3ffc0",
        "trace_0.1_false_1.csv":
            "655bc6b21b2125f3de205189080952bacbf8a0c753263ef245e5151811ad13fa",
        "trace_0.1_false_2.csv":
            "a957d5f27d06f8bfa840306651869df5d95d5d6d9db30033bd3d7d76f2233d09",
        "trace_0.1_false_3.csv":
            "2dfc13a90f8808aa44cc996a8ece1ebd5f5ba0822ed837f9670ceefef92abfdb",
        "trace_0.1_true_0.csv":
            "e6469fa2a54d51e40715c6c59e9a0bd172f831378e18a49349055d8abfb07b0f",
        "trace_0.1_true_1.csv":
            "1e3f2b2fb23c7ed26969198a69a908dc1a16522a4b17acff387a6dc013282334",
        "trace_0.1_true_2.csv":
            "d2c1c95a882fadd4be298ca9e0b4b047dbff45b4df3ce8710a96c29147f1666d",
        "trace_0.1_true_3.csv":
            "5153f21243a4a4dadd15c014bede0928d86682ad3d04c7eb4ab21c562d620455",
    },
    "foc_window5": {
        "manifest.json":
            "492a110fdb63509f6052bb8db8c9ed7ede6edcceb728fa8bd4503bba670950e6",
        "summary.json":
            "9506b0683163ecef197959dd5f9ddd9dc6bf6104cc51fb97f539059f5fc2654c",
        "trace_0.05_true_0.csv":
            "9dca86e987fd88b65bc0446dbad61fcdd0959256361bb1111f96cff9d8e5c71b",
        "trace_0.05_true_1.csv":
            "aa1fceb232146179d1fbbabaa8477eff948d6ddea618ef6b446e7e4c93e70379",
        "trace_0.05_true_2.csv":
            "fde618136fab58968323531739deec332437102b13e7ec6609e927ef05d84a75",
        "trace_0.05_true_3.csv":
            "7fb90ad04b71d03b76892b0920d037a81ee35a65c09ab2e4728739d6004d4980",
        "trace_0.0_true_0.csv":
            "24481e7efcd0a849a37a01c03ae3f9052129a3372bd81bc71ebef36f00c700b0",
        "trace_0.0_true_1.csv":
            "24481e7efcd0a849a37a01c03ae3f9052129a3372bd81bc71ebef36f00c700b0",
        "trace_0.0_true_2.csv":
            "24481e7efcd0a849a37a01c03ae3f9052129a3372bd81bc71ebef36f00c700b0",
        "trace_0.0_true_3.csv":
            "24481e7efcd0a849a37a01c03ae3f9052129a3372bd81bc71ebef36f00c700b0",
        "trace_0.1_true_0.csv":
            "6594672bd9e94f58483056dd2f81e7c02bea4025eba2a53333e693cd608340d9",
        "trace_0.1_true_1.csv":
            "17cd7c7409355dd51597c7fc8d816660289e10b9aaec81ab5de50c801162279f",
        "trace_0.1_true_2.csv":
            "a673a66103dd1f2a7639f241b0f643a8a6de105e0b2b1c1e0df8f5010a5e9f73",
        "trace_0.1_true_3.csv":
            "b79cc9300ed04d8c6905c6b8192b69d4912c0988e701aa418c116253282154aa",
    },
    "gradient_cumulative": {
        "manifest.json":
            "438ec97ba7b77228bbb36f76db8a97463d0fde6ed3c619957a0ef8fe2785fe29",
        "summary.json":
            "204c1570c310eb087e70ae09e6cc34eaa7477f32cd54a0346a9d0cef3dde5035",
        "trace_0.05_false_0.csv":
            "941fe208a2393788f819125d25a414380f276f3dbe9b626e130d95f025d372ce",
        "trace_0.05_false_1.csv":
            "d3eddb2ac5ba25a879f4c8eed4389188000d5e1b24d97e34d2b87e4d245214b0",
        "trace_0.05_false_2.csv":
            "cc8063d04e372d70409386de1305cd9a3a8d520f49928015716c4be4578751a4",
        "trace_0.05_false_3.csv":
            "6fd4f1fd82e31733a2e28e9516edab9d26fe9af9e26c9944d5b6312c13744ada",
        "trace_0.05_true_0.csv":
            "f04d8d7dddda1dcf370091dd92aa2c7670e12b322d73aa74dd5cf6e679a3faa2",
        "trace_0.05_true_1.csv":
            "0bcca7cf24c961c9b4065db869e073b996e809f0a9afb296a0929cb1a1e45129",
        "trace_0.05_true_2.csv":
            "89589834c1cd6b910742a30ce12df67503d65d2410e6ff45ab21b865f681abd5",
        "trace_0.05_true_3.csv":
            "b6df0080bb6a9b338fc62b778881a0c9f2d12811e649bc98532a98ca1258e8f6",
        "trace_0.0_false_0.csv":
            "ec142660e3b11320c55b4df44b84520b6bdd4e6b3483b6f2efe2aed7d79d58bb",
        "trace_0.0_false_1.csv":
            "ec142660e3b11320c55b4df44b84520b6bdd4e6b3483b6f2efe2aed7d79d58bb",
        "trace_0.0_false_2.csv":
            "ec142660e3b11320c55b4df44b84520b6bdd4e6b3483b6f2efe2aed7d79d58bb",
        "trace_0.0_false_3.csv":
            "ec142660e3b11320c55b4df44b84520b6bdd4e6b3483b6f2efe2aed7d79d58bb",
        "trace_0.0_true_0.csv":
            "dd11efeef65b5b7227414ff5f3298ee9d034f0e047895a755ccbb3719f1501a1",
        "trace_0.0_true_1.csv":
            "dd11efeef65b5b7227414ff5f3298ee9d034f0e047895a755ccbb3719f1501a1",
        "trace_0.0_true_2.csv":
            "dd11efeef65b5b7227414ff5f3298ee9d034f0e047895a755ccbb3719f1501a1",
        "trace_0.0_true_3.csv":
            "dd11efeef65b5b7227414ff5f3298ee9d034f0e047895a755ccbb3719f1501a1",
        "trace_0.1_false_0.csv":
            "44d32b5b1ba62e81c236a21ccac9eaf96c7768cb920465bd0c111e90d4666fb6",
        "trace_0.1_false_1.csv":
            "ae0245cb3b8e01a929d3362936e2ee92c75b63f9d626523f0fd997b55d9b5140",
        "trace_0.1_false_2.csv":
            "6d61dc6cd033e4185d6d3c6147da047827d1e8db25344802b5e3cd867ee52f7a",
        "trace_0.1_false_3.csv":
            "5aa53f1dbb780e62e4ceabe44aa5c531df71f1b7ee75f6c023fbad39129a9621",
        "trace_0.1_true_0.csv":
            "825445ae757b9198123c330c7c56a616ca5f1c737e885a1cdb5197e104ef8caa",
        "trace_0.1_true_1.csv":
            "e611ffc09e1e01ec7d36844ae4fe7a07738e77df3ad2b8aa767dafc89aa5776b",
        "trace_0.1_true_2.csv":
            "c822fa836f556a6a4c54710a54d4eb198dc4333d68c36873f0c66df87ba823e6",
        "trace_0.1_true_3.csv":
            "94e778eadc777e1c6759167785750c76e407cdb9106899fe561de3c6c9526315",
    },
    "gradient_window5": {
        "manifest.json":
            "8056e44ddd538bf9f6b99c3fcc3d108a8f336b60032ec3d4aca4f30b77750bf2",
        "summary.json":
            "02a7f8be652f83309f1030c26221a8e2a54563d97c038a2bebeda69427247552",
        "trace_0.05_true_0.csv":
            "1c17318852ec369edb99a1bbf22285a1f687612f4a4431aefea38bddcea99bac",
        "trace_0.05_true_1.csv":
            "941274f9dac02a46c2c3276bbb293075e12c9fc174535b3d868a79d37a8db4ec",
        "trace_0.05_true_2.csv":
            "79e328e2b94b9a9fc713a7e8e2ac0e529b0349a458d76be850064d201a51c11d",
        "trace_0.05_true_3.csv":
            "82fedfd1af775df7662e83e7fb42c4a3a159e8354831fc9b603446c13ab8ef0e",
        "trace_0.0_true_0.csv":
            "928b2a4e3166e227e15770305fa515bcd9f1d65e7268e4e903125790c7b1e70c",
        "trace_0.0_true_1.csv":
            "928b2a4e3166e227e15770305fa515bcd9f1d65e7268e4e903125790c7b1e70c",
        "trace_0.0_true_2.csv":
            "928b2a4e3166e227e15770305fa515bcd9f1d65e7268e4e903125790c7b1e70c",
        "trace_0.0_true_3.csv":
            "928b2a4e3166e227e15770305fa515bcd9f1d65e7268e4e903125790c7b1e70c",
        "trace_0.1_true_0.csv":
            "9145e259004e243b947234d5f8d535c5c6fc62a4a6d19389b40cf01b2aaa5882",
        "trace_0.1_true_1.csv":
            "f12bb40b1cd4b28486fbd4e160d3a7cf0f78039e3177db006481ab63e67e65f2",
        "trace_0.1_true_2.csv":
            "aaaefa293e5978f67864bb0599c5065ccb1f2168cd58468391800c4525a9e916",
        "trace_0.1_true_3.csv":
            "35e8e96dfbe76e719db99a45f72b0187e8dced434084c13baf42c274b9506787",
    },
    "single_node_cumulative": {
        "manifest.json":
            "b7b16f16a925c5a2d6074168b496d6f12381a6740f10e2f9bd55f44e1c5a3715",
        "summary.json":
            "92868d4d21c81691968bd72f5f4e3fe396de0ec795cb81b67b7ac326e353ab73",
        "trace_0.05_true_0.csv":
            "7569018c44769ce7114f80b6c04f9ef6b29cf25e933c1b6ea4c7775388f90e64",
        "trace_0.05_true_1.csv":
            "ffb4c9b5b6a574471009b564d00d49e91fb89e4b3d43017c6d92fbb5fd9a4097",
        "trace_0.05_true_2.csv":
            "ffb4ecf4caefe657efe2f58520c60ca2eaad36ae0c6c0f85a8448aeafc45d435",
        "trace_0.05_true_3.csv":
            "55f01125dc77da8d204d7b2301d11232373bb782fd0a506132a289880feddf56",
        "trace_0.0_true_0.csv":
            "5e1e2b63827bb8b026e138c5809a16b37d44d2eb9902c832c478bb065b308ef8",
        "trace_0.0_true_1.csv":
            "5e1e2b63827bb8b026e138c5809a16b37d44d2eb9902c832c478bb065b308ef8",
        "trace_0.0_true_2.csv":
            "5e1e2b63827bb8b026e138c5809a16b37d44d2eb9902c832c478bb065b308ef8",
        "trace_0.0_true_3.csv":
            "5e1e2b63827bb8b026e138c5809a16b37d44d2eb9902c832c478bb065b308ef8",
        "trace_0.1_true_0.csv":
            "15df785b979321108c00a994c13ecca645cd24787053c84dd8cecf8727dfb4df",
        "trace_0.1_true_1.csv":
            "1ec85839129c4a558c140d473c3dff2ea2c2222c34a339000cb6762ee3442992",
        "trace_0.1_true_2.csv":
            "a966e06bb6c62ed4fb82b7519aadb09bd2736e1103e37daec2e608fdd7337d67",
        "trace_0.1_true_3.csv":
            "d9711dcf4662d7376d1d55413f1e37c40935d260f8c3f41cf190f9183bbddb3b",
    },
}


def _run(tmp_path: Path, scenario: dict, rule: str, averaging: list) -> Path:
    out = tmp_path / "out"
    config = {
        "scenario": scenario,
        "experiment": {
            "mode": "simulate",
            "seeds": SEEDS,
            "noise_sweep": NOISE,
            "averaging_sweep": averaging,
            "price_rule": rule,
            "out_dir": str(out),
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", str(path)]) == 0
    return out


def _digests(out: Path) -> dict[str, str]:
    names = sorted(p.name for p in out.glob("*.csv"))
    names += ["manifest.json", "summary.json"]
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in names
    }


@pytest.mark.parametrize("run", sorted(RUNS))
def test_sweep_outputs_match_golden_digests(tmp_path, run):
    out = _run(tmp_path, *RUNS[run])
    assert _digests(out) == GOLDEN[run]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_config(tmp_path: Path, config: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def _three_player_game(path: Path) -> str:
    """A 2x3x2 game with two pure equilibria, payoffs rounded to 1e-3."""
    rng = np.random.default_rng(2027)
    payoffs = np.round(rng.uniform(-5.0, 5.0, size=(3, 2, 3, 2)), 3)
    save_game(NormalFormGame((2, 3, 2), payoffs), path)
    return str(path)


PREDICT_MODELS = {
    "best_response": {"model": "best_response"},
    "epsilon_nash": {"model": "epsilon_nash", "params": {
        "epsilon": 0.1, "no_nash_fallback": "uniform"}},
    "logit_qbr": {"model": "logit_qbr", "params": {"precision": 1.5}},
    "level_k_exact_br": {"model": "level_k", "params": {
        "level_weights": [0.25, 0.5, 0.25]}},
    "level_k_qbr": {"model": "level_k", "params": {
        "level_weights": [0.2, 0.3, 0.5], "response": "qbr", "precision": 1.5}},
    "cognitive_hierarchy_exact_br": {"model": "cognitive_hierarchy", "params": {
        "poisson_mean": 1.5, "max_level": 3}},
    "cognitive_hierarchy_qbr": {"model": "cognitive_hierarchy", "params": {
        "poisson_mean": 1.5, "max_level": 3, "response": "qbr", "precision": 2.0}},
    "noisy_introspection": {"model": "noisy_introspection", "params": {
        "precision": 2.0, "decay": 0.5, "max_depth": 4}},
}

SOCIAL = {"selfish_weight": 1.0, "altruism_weight": 0.3,
          "inequity_weight": 0.2, "envy_weight": 0.1}

# "<game>/<model>/<plain|social>" -> digest of the predict stdout
PREDICT_GOLDEN: dict[str, str] = {
    "example/best_response/plain":
        "59015267f67225e777bebddcfb32dad7cdbb452b2fd8fc0eb3f4d6dd6d6ed4be",
    "example/best_response/social":
        "59015267f67225e777bebddcfb32dad7cdbb452b2fd8fc0eb3f4d6dd6d6ed4be",
    "example/cognitive_hierarchy_exact_br/plain":
        "59015267f67225e777bebddcfb32dad7cdbb452b2fd8fc0eb3f4d6dd6d6ed4be",
    "example/cognitive_hierarchy_exact_br/social":
        "59015267f67225e777bebddcfb32dad7cdbb452b2fd8fc0eb3f4d6dd6d6ed4be",
    "example/cognitive_hierarchy_qbr/plain":
        "d6c5a4d4c0cb6680d83394bbf1e45aa3b3be8809e3f41d07f12d42c2c6b1cdc2",
    "example/cognitive_hierarchy_qbr/social":
        "9dd9ccb6b4cf45e5bc0ef83d0fef3d76a676b6257709f04c674c9b459d1b0b68",
    "example/epsilon_nash/plain":
        "4632e7f299faa8c23abd7884e2c395bd621b69934d46141fc6e37345991d7820",
    "example/epsilon_nash/social":
        "4632e7f299faa8c23abd7884e2c395bd621b69934d46141fc6e37345991d7820",
    "example/level_k_exact_br/plain":
        "f7af031d8dc31693bf46e56bfefe3e4d4080deb2f90bce23de2c61bbca14e03f",
    "example/level_k_exact_br/social":
        "f7af031d8dc31693bf46e56bfefe3e4d4080deb2f90bce23de2c61bbca14e03f",
    "example/level_k_qbr/plain":
        "429865eb88162672442a97aef20620c26f98133a0ff21c9e2c1c1a22187b76ce",
    "example/level_k_qbr/social":
        "925dad9be6c14363031f1783963bb4e87d834917fbc385badb153658faf44003",
    "example/logit_qbr/plain":
        "5f99ce977a1dcac248c9b3eddb35c645a8493467e4b4de7bcfc5449e29b5b5e6",
    "example/logit_qbr/social":
        "192fbb7a27bc23c4147edd26dcb796219b7a088e3f285270ba533dffa30c022b",
    "example/noisy_introspection/plain":
        "721844e8ade1195118f38f864ea73a0babd89c9feeacb6a683ca343230c6e568",
    "example/noisy_introspection/social":
        "cb3ad0ef211957267571aa5140f7ea465b363241a40f81d49fa6a3ec451aaa4d",
    "three_player/best_response/plain":
        "9b47cd1476a912a5d6bffbc55cd6d236f54ceffd427df02211086a51d1decbd1",
    "three_player/best_response/social":
        "9b47cd1476a912a5d6bffbc55cd6d236f54ceffd427df02211086a51d1decbd1",
    "three_player/cognitive_hierarchy_exact_br/plain":
        "dac76310a9d772da595daf9058c0804b866b776756132a952fbff7d070f9bcd4",
    "three_player/cognitive_hierarchy_exact_br/social":
        "dac76310a9d772da595daf9058c0804b866b776756132a952fbff7d070f9bcd4",
    "three_player/cognitive_hierarchy_qbr/plain":
        "7b20526836a1527118b6a99388ef38df52aafe84c8f3ddd7568b6ebb18d5ac1f",
    "three_player/cognitive_hierarchy_qbr/social":
        "74539d994fbe0b77c0665f0371e7da4b5b2ba241ad5ae07e13b1c3bcdd1e4f32",
    "three_player/epsilon_nash/plain":
        "5766f952f2c5aff356ae996fd320ae196b0a7c7c900b522985a496449d4cfd7b",
    "three_player/epsilon_nash/social":
        "5766f952f2c5aff356ae996fd320ae196b0a7c7c900b522985a496449d4cfd7b",
    "three_player/level_k_exact_br/plain":
        "827fef136277ed2f78534dd6088308e59de5cfc17e2c62e44081ab5cf7cb6a25",
    "three_player/level_k_exact_br/social":
        "21c12935fcdbcadc6958ccc741a10db1dddbab048939e3fdca6b2c151a214738",
    "three_player/level_k_qbr/plain":
        "7bc8c4048041265a33625b61154d8bc1a2366c945482193317eb3cd781cd06bc",
    "three_player/level_k_qbr/social":
        "29f9d95daaa4dbe3c4ae790e68d862b4eed2eb5461a4edd0011c932126aeb5e7",
    "three_player/logit_qbr/plain":
        "c92a3370030d35696095acaf00509289916839e11f596306c4b337c50a27e944",
    "three_player/logit_qbr/social":
        "4ddfdf8bed84015f36ea91c0da15234cf32c8142241ea95f60fdd69c9cc319f7",
    "three_player/noisy_introspection/plain":
        "c9cebf546a1df8312712ed74232c28abb781debdcabc66d423ad674db20da803",
    "three_player/noisy_introspection/social":
        "df8b89f9fa773c09f13b5fde590414bcfea56ccc790217300bb0871b87f7089b",
}

LOTTERY_GOLDEN = (
    "eeb4c28e155b84f9d1d8dcf0ee134e9eeb915ccbc5d558dffa311c72f12baa2c"
)

# fit name -> (model block, experiment options, digest of fit_result.json)
FIT_RUNS = {
    "logit_qbr_folds": (
        {"model": "logit_qbr", "params": {}},
        {"search": {"grid_points": 6, "refine_iters": 2}, "folds": 2},
        "d7a573ad1987470b06e3d91b25ddef46b37d4fc4283558e5edfc4df351bb1df6",
    ),
    "level_k_qbr": (
        {"model": "level_k", "params": {"num_levels": 2, "response": "qbr"}},
        {"search": {"grid_points": 4, "refine_iters": 2}},
        "5c9fcfd92de1d8f1067e49ee0684179fb9485f60418d811513e17033c726adfa",
    ),
}


def _predict_stdout(tmp_path, capsys, game: str, model: str, social: bool) -> str:
    if game == "example":
        game_path = str(REPO / "data" / "example_game.json")
    else:
        game_path = _three_player_game(tmp_path / "game.json")
    config = {
        "model": PREDICT_MODELS[model],
        "experiment": {"mode": "predict", "game": game_path},
    }
    if social:
        config["social"] = SOCIAL
    capsys.readouterr()
    assert main(["predict", _write_config(tmp_path, config)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("social", ["plain", "social"])
@pytest.mark.parametrize("model", sorted(PREDICT_MODELS))
@pytest.mark.parametrize("game", ["example", "three_player"])
def test_predict_output_matches_golden_digest(tmp_path, capsys, game, model, social):
    out = _predict_stdout(tmp_path, capsys, game, model, social == "social")
    assert _sha(out.encode()) == PREDICT_GOLDEN[f"{game}/{model}/{social}"]


def test_lottery_output_matches_golden_digest(tmp_path, capsys):
    config = {
        "prospect": {"gain_curvature": 0.8, "loss_aversion": 2.0},
        "lottery": {"outcomes": [-3.0, 1.5, 10.0], "probs": [0.3, 0.5, 0.2]},
        "experiment": {"mode": "predict"},
    }
    capsys.readouterr()
    assert main(["predict", _write_config(tmp_path, config)]) == 0
    assert _sha(capsys.readouterr().out.encode()) == LOTTERY_GOLDEN


@pytest.mark.parametrize("run", sorted(FIT_RUNS))
def test_fit_result_matches_golden_digest(tmp_path, capsys, run):
    model, options, digest = FIT_RUNS[run]
    out = tmp_path / "out"
    config = {
        "model": model,
        "experiment": {
            "mode": "fit",
            "dataset": str(REPO / "data" / "qbr_lambda2.jsonl"),
            "out_dir": str(out),
            **options,
        },
    }
    assert main(["fit", _write_config(tmp_path, config)]) == 0
    assert _sha((out / "fit_result.json").read_bytes()) == digest
