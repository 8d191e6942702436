"""Byte identity of the largest outputs: sha1 digests of the SCL counter traces and the counter experiment.

The golden tests pin small runs line by line; these pin the full text and
JSON output of `--mode scl --counter-n n` for n = 8..12 (up to 4,096
propagation lines), of `--mode counter-experiment --counter-n 12`, and of
`--mode scl` on three Horn chains of arity-3 rules with shuffled arguments,
so any change to a trace line, a JSON field or the order of propagations
fails here.
"""

import hashlib
import io
import random

import pytest

from oracles import bs_text
from test_scl_kernel import horn_chain
from clausekit.cli import EXIT_SAT, EXIT_UNSAT, main

# (argv, exit code, sha1 of the text output, sha1 of the JSON output)
DIGESTS = [
    (["--mode", "scl", "--counter-n", "8"], EXIT_UNSAT,
     "0391545f674adfe989b2a37684c9ed719b9bd52e", "ce2043c83a745bec140487862cc86cbbc4253782"),
    (["--mode", "scl", "--counter-n", "9"], EXIT_UNSAT,
     "963d4ad635ded1ef8c534e9dabb18339603c2955", "c610e54d2aa2114d8fa0780d2a8b3d14cd426493"),
    (["--mode", "scl", "--counter-n", "10"], EXIT_UNSAT,
     "9d6d1c559959927cce49bfeb6c25300af42e0ff3", "c0d2433628b6719164ee8613c5584e11dca4b090"),
    (["--mode", "scl", "--counter-n", "11"], EXIT_UNSAT,
     "c315b3a4da3ddb9a7ed37cce3a9e3a474fe6111b", "02a1baf28f249b899cda02ef3bf84d1a93acc67f"),
    (["--mode", "scl", "--counter-n", "12"], EXIT_UNSAT,
     "51d14d23d4431df2f66214368dcd98519071d5f8", "f65c7e20d0b4544288038f686c91b9a764890def"),
    (["--mode", "counter-experiment", "--counter-n", "12"], EXIT_SAT,
     "d7b83efc4ecfc370075f6dd3bfdea6c6158daf5a", "86cf3320b5c8a0728532bbffed4f6433a37f54ac"),
]


@pytest.mark.parametrize("argv, code, text_sha1, json_sha1", DIGESTS, ids=[" ".join(d[0][1::2]) for d in DIGESTS])
def test_output_digest(argv, code, text_sha1, json_sha1):
    for fmt, expected in (("text", text_sha1), ("json", json_sha1)):
        out = io.StringIO()
        assert main(argv + ["--format", fmt], out) == code
        assert hashlib.sha1(out.getvalue().encode()).hexdigest() == expected, fmt


# (seed, constants, sha1 of the text output, sha1 of the JSON output) of `horn_chain`
HORN_DIGESTS = [
    (1, 8, "c98c48df16d04e17561de81e70b3bbda0fe7db11", "5414e780314deb77aa4fd8498570be6297cc11ae"),
    (2, 12, "dd05e0f5823ccc4fbf78f8e69d39ca3962e387cf", "c3f3067c1fc7f0563493ec8abc5ea26f11ea8bb2"),
    (3, 16, "681bd97030fe2e7b52961fa4d6b4ae454eaa3d6c", "495bf5b2a3b9e588f98b754c62b5ffdba8cdee6e"),
]


@pytest.mark.parametrize("seed, k, text_sha1, json_sha1", HORN_DIGESTS, ids=[f"horn{d[1]}" for d in HORN_DIGESTS])
def test_horn_chain_digest(seed, k, text_sha1, json_sha1, tmp_path):
    path = tmp_path / "horn.bs"
    path.write_text(bs_text(horn_chain(random.Random(seed), k)))
    test_output_digest(["--mode", "scl", "--input", str(path)], EXIT_UNSAT, text_sha1, json_sha1)
