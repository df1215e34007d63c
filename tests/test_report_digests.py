"""Pinned report digests: the byte-identical report contract across builds.

Each shipped config runs under its command in both renderings, and the
SHA-256 of the report and the exit status must match the values pinned
here.  `tests/data/linear-local-poly.json` adds a linear-local law whose
chi has polynomial entries, so its FAIL witnesses print non-trivial
rational coefficients.  `tests/data/check-n6.json` (real, n = 6, p = 3)
and `tests/data/check-c5.json` (complex, n = 5, p = 2) pin the form
operations past n = 4.  A change to the arithmetic that alters a single
report byte fails this test; a deliberate report change must update the
pins and say so in CHANGES.md.
"""

import hashlib
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
]


@pytest.mark.parametrize("config,command,fmt,status,digest", PINNED,
                         ids=[f"{Path(c).stem}-{f}" for c, _, f, _, _ in PINNED])
def test_report_digest_is_pinned(tmp_path, config, command, fmt, status, digest):
    out = tmp_path / "report"
    code = cli.main([command, "--config", str(ROOT / config),
                     "--format", fmt, "--out", str(out)])
    assert code == status
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
