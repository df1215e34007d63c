"""Pinned report digests: the byte-identical report contract across builds.

Each shipped config runs under its command in both renderings, and the
SHA-256 of the report and the exit status must match the values pinned
here.  `tests/data/linear-local-poly.json` adds a linear-local law whose
chi has polynomial entries, so its FAIL witnesses print non-trivial
rational coefficients.  `tests/data/check-n6.json` (real, n = 6, p = 3)
and `tests/data/check-c5.json` (complex, n = 5, p = 2) pin the form
operations past n = 4; `tests/data/reciprocity-e6.json` (complex, n = 6,
p = 3) and `tests/data/reciprocity-e2.json` (real, n = 2, p = 1) pin the
pair map and the factorization at odd p under a Euclidean metric, where
the densities are negated.  A change to the arithmetic that alters a single
report byte fails this test; a deliberate report change must update the
pins and say so in CHANGES.md.

`TRAFFIC` pins configs in the shapes the benchmark runs, built here from
fixed seeds: check at n = 6, p = 3; complex reciprocity with a z list;
and a linear-local chi with polynomial entries, whose phi rows mostly
FAIL with printed witnesses.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from premetric import cli

ROOT = Path(__file__).resolve().parent.parent

PINNED = [
    ("configs/axion-witness.json", "constitutive", "text", 1,
     "ce51da69c93ebbdc747dcc772d54341f50c202ca8f5e8923937c89e9fce04d90"),
    ("configs/axion-witness.json", "constitutive", "structured", 1,
     "c77bd677d4ac3c2c7d348c4744b111ac737f275024cc47cbb922a05096db89e6"),
    ("configs/conservation.json", "check", "text", 0,
     "7fc12a7cd95a1f8426daa989ec940147cca3c2597d53c265db4b46427cf26e3f"),
    ("configs/conservation.json", "check", "structured", 0,
     "094f0e0ef513bfeb399c7a51a909548816b06333f66035544471323eb60edc8b"),
    ("configs/custom-phi-fail.json", "constitutive", "text", 1,
     "0b9e68a310d63119adcbee436766c61b268f4b8dc8a6b78859992ac00daa22ad"),
    ("configs/custom-phi-fail.json", "constitutive", "structured", 1,
     "52581bf0bcea256351fa5bc8ea4efe3d55aeee354ce44f02dc86c9b7287b1fa8"),
    ("configs/reciprocity.json", "reciprocity", "text", 0,
     "07453374aa223724ae796bf2e79a7ff39294a8e1d44be1c64d2e52a451b19ba1"),
    ("configs/reciprocity.json", "reciprocity", "structured", 0,
     "1fc9304fd6b8b0bfcabb01dac1e69a8ee1e75ed8393190ee07b438beadeada87"),
    ("configs/split.json", "split", "text", 0,
     "bf71bb849075343c6dc2db349cd24f9f9242c551568a284c5bbcbcaf8f35aaa9"),
    ("configs/split.json", "split", "structured", 0,
     "b52fee0aa41b2c00c35f99a4bade968cd1cd7ebbf1c0d665dafdbfe34366f51b"),
    ("configs/vacuum.json", "constitutive", "text", 0,
     "cbb7569642826e477a18a3a584a47c264ab9e372497eaab89ef5488a9ad66517"),
    ("configs/vacuum.json", "constitutive", "structured", 0,
     "419e4f035b17c5c45f8b72c5297d0192b4fae7ef140dbed5eda05cf95ba88352"),
    ("tests/data/linear-local-poly.json", "constitutive", "text", 1,
     "6a8889d528dfcdc58180374f765f22645a1a35d3c55f2ec6b7b2585740044231"),
    ("tests/data/linear-local-poly.json", "constitutive", "structured", 1,
     "6630f94dced9eb73755df9b633d6aaa14f8686ba19ec2803ba4648c47848f165"),
    ("tests/data/check-n6.json", "check", "text", 0,
     "5354b321a9a2ba199a3db84bac5549c421a0020daae43762eb644dabc2a5125a"),
    ("tests/data/check-n6.json", "check", "structured", 0,
     "495235c45d5241a80881820b2f349c89746a53bea02bea3ae52f69431c7c631e"),
    ("tests/data/check-c5.json", "check", "text", 0,
     "11e9285a648644ee913c88d337b743a9e943d730b5a9bc24042026e4ad851272"),
    ("tests/data/check-c5.json", "check", "structured", 0,
     "eae6a9abed25aa26bf9ad68dcac652a5c31dc48a20851df519eb64881a400552"),
    ("tests/data/reciprocity-e6.json", "reciprocity", "text", 0,
     "b5c37b19ac8cec0c33b7a61b09a97a379762ca7a712790265fea09af3c8d1ea6"),
    ("tests/data/reciprocity-e6.json", "reciprocity", "structured", 0,
     "31105f5ab45877fe1f907efc8a37935c0f0e5ccf32e93a8d4fbde94c1a05b0e7"),
    ("tests/data/reciprocity-e2.json", "reciprocity", "text", 0,
     "6a312cbe82e18710a17d8d4e2fead083d3bcdaf6bb1cb9d71e4c3c3b635378bd"),
    ("tests/data/reciprocity-e2.json", "reciprocity", "structured", 0,
     "78ea3192af5520f37f605b3643f0a4edcb053e8c7afe4716280e7008d960dff1"),
]


@pytest.mark.parametrize("config,command,fmt,status,digest", PINNED,
                         ids=[f"{Path(c).stem}-{f}" for c, _, f, _, _ in PINNED])
def test_report_digest_is_pinned(tmp_path, config, command, fmt, status, digest):
    out = tmp_path / "report"
    code = cli.main([command, "--config", str(ROOT / config),
                     "--format", fmt, "--out", str(out)])
    assert code == status
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _chi_entry(rng):
    """A rational literal, or a short polynomial in one or two coordinates."""
    if rng.random() < 0.4:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    a, b = rng.sample(range(4), 2)
    c = [f"{rng.randint(1, 9)}/{rng.randint(1, 9)}" for _ in range(3)]
    s1, s2 = rng.choice("+-"), rng.choice("+-")
    return f"({c[0]}*x{a}^{rng.randint(1, 2)} {s1} {c[1]}*x{b} {s2} {c[2]})"


def traffic_config(command, seed):
    """The config of one bench-shaped invocation of command."""
    if command == "check":
        return {"n": 6, "p": 3, "mode": "real", "degree_bound": 2,
                "samples": 2, "seed": seed}
    if command == "reciprocity":
        return {"n": 4, "p": 2, "mode": "complex",
                "metric": {"diagonal": [1, -1, -1, -1]}, "Z0": "377/120",
                "z": [1, 2, -3, "1/5"], "samples": 4, "seed": seed}
    rng = random.Random(f"traffic:{seed}")
    chi = [[_chi_entry(rng) for _ in range(6)] for _ in range(6)]
    return {"n": 4, "p": 2, "samples": 3, "seed": seed,
            "constitutive": {"kind": "linear-local", "chi": chi}}


TRAFFIC = [
    ("check", "text", 1, 0,
     "0cd06119256fb58967fdc430bb4516fc076a4e1a67f2d8b71d3b1f12bfd8d867"),
    ("check", "text", 2, 0,
     "2382ff217325103640042ad682ce1eed4a3a9b60e265a0952d3f8532fe49b38b"),
    ("reciprocity", "structured", 1, 0,
     "218c1cdcbf193522578d79e0e5ec7fc96d10c27579fde99c25fba90db78fbdc4"),
    ("reciprocity", "structured", 2, 0,
     "d07f93bae88e8256ca996261d0639ec78ce228a0efa25e84b5cae5a2e03300a3"),
    ("constitutive", "text", 1, 1,
     "e320192c93590347585d2ab1e11a67975687e4a097c1db4b2b808c722e52509e"),
    ("constitutive", "text", 2, 1,
     "986ce34872ed3de43b458918faca2d43367c36ac9430dc98d26170f2665fe2cb"),
    ("constitutive", "text", 3, 1,
     "87062322edac964424c34a48c64bf4d83223f676c48febaadc7fa64bb81a2c9e"),
]


@pytest.mark.parametrize("command,fmt,seed,status,digest", TRAFFIC,
                         ids=[f"{c}-{f}-seed{k}" for c, f, k, _, _ in TRAFFIC])
def test_traffic_digest_is_pinned(tmp_path, command, fmt, seed, status, digest):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(traffic_config(command, seed)), encoding="utf-8")
    out = tmp_path / "report"
    code = cli.main([command, "--config", str(path), "--format", fmt,
                     "--out", str(out)])
    assert code == status
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
