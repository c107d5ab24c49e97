"""Golden artifacts: fixed tiny runs must write the same bytes.

For each variant below, `taam run` on a small block-model stream must
reproduce the SHA-256 of `matrix.csv`, of `summary.json` without its
`wall_time_seconds` line, of every `task_NN_train.log`, of `checkpoint.bin`
and of its sidecar `checkpoint.bin.frozen`.  A refactor that keeps these
digests deletes code without changing behaviour.

The tiny variants share `CONFIG` (hidden 16, 2 heads).  The wide variant runs
the default widths (hidden 256, embed 64, 3 heads) on 128-dim features, so it
also pins the shape-dependent BLAS kernels that production runs use.

Float results depend on the BLAS kernel that does the matmuls, so the digests
are keyed to numpy's version and to its OpenBLAS build and run-time kernel.
Where that fingerprint differs the test skips and says why.  To record the
digests of the current code, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import ctypes
import glob
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from taam.cli import main

CONFIG = """\
dataset = sbm:classes=6,npc=15,p_in=0.2,p_out=0.05,dim=8,sep=4
protocol = equal:2
seed = 3
hidden_dim = 16
embed_dim = 8
heads = 2
epochs = 10
"""

WIDE_CONFIG = """\
dataset = sbm:classes=4,npc=1000,p_in=0.01,p_out=0.002,dim=128,sep=8
protocol = equal:2
seed = 3
epochs = 2
"""

# variant -> (config, `taam run` flags)
VARIANTS = {
    "taam-full-f64": (CONFIG, ["--method", "taam", "--ablation", "full", "--precision", "f64"]),
    "taam-retrieval_only-f64": (CONFIG, ["--method", "taam", "--ablation", "retrieval_only", "--precision", "f64"]),
    "taam-nsm_only-f64": (CONFIG, ["--method", "taam", "--ablation", "nsm_only", "--precision", "f64"]),
    "oracle-f64": (CONFIG, ["--method", "oracle", "--precision", "f64"]),
    "finetune-f64": (CONFIG, ["--method", "finetune", "--precision", "f64"]),
    "taam-full-f32": (CONFIG, ["--method", "taam", "--ablation", "full", "--precision", "f32"]),
    "taam-full-f32-wide": (WIDE_CONFIG, ["--method", "taam", "--ablation", "full", "--precision", "f32"]),
}


def blas_fingerprint() -> str | None:
    """numpy's version plus its OpenBLAS configuration, which names the
    kernel picked for this CPU at run time; None if it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return f"numpy {np.__version__}; {fn().decode()}"
    return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(workdir, config, flags) -> dict:
    """Run `taam run` in `workdir` and hash its artifacts.

    The output directory is the relative path "out": the config echoed into
    summary.json and checkpoint.bin holds it, so it must not vary.
    """
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with open("run.conf", "w") as fh:
            fh.write(config)
        assert main(["run", "--config", "run.conf", "--out", "out", *flags]) == 0
        names = sorted(os.listdir("out"))
        digests = {}
        for name in names:
            with open(os.path.join("out", name), "rb") as fh:
                data = fh.read()
            if name == "summary.json":
                lines = data.splitlines(keepends=True)
                data = b"".join(l for l in lines if not l.lstrip().startswith(b'"wall_time_seconds"'))
            digests[name] = sha256(data)
        return digests
    finally:
        os.chdir(cwd)


FINGERPRINT = "numpy 2.4.6; OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"
GOLDEN = {
    "finetune-f64": {
        "checkpoint.bin": "861ed4d879fd86fd8e7f417ae11a5e388a854f3e33abb1f910d39d6b81caf18c",
        "checkpoint.bin.frozen": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "matrix.csv": "aa7951b49a945927955a6ad1e207b0017e218256b80ff8a518fdbba25dca4493",
        "summary.json": "7246be840017e3d3f99bf6a9011d67b128ad4ed0339a52d31fa77317cfb1a7f7",
        "task_01_train.log": "db6f83369de7a8530bcefd76d3f1b5825908c9348b3ebbdeba45a67ea43a87f6",
        "task_02_train.log": "85ab3b8914ae55991ab30d7e5b67b6bc7f6e20d569c3e087c047decf0042822d",
        "task_03_train.log": "1c6d6523872607b0ca65629e5d775952a5e4234afc1001983cb153162723f000",
    },
    "oracle-f64": {
        "checkpoint.bin": "6fd18acad56b0ebb84bda8975ce19bf7ff9e79e501d22430ef15936c6df0434d",
        "checkpoint.bin.frozen": "7b92c9e4732c0ed3e7137da03ba030d17b193b4ef2bde2e8700c14945d7cbf9f",
        "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
        "summary.json": "4d4837c4298aecd1ab9f1446850654ee6dd4a4ca3b11b2241f3ee694581ff460",
        "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
        "task_02_train.log": "aa6b8741271921850f053d5114362231b1b9ce7280f8d15ab736ca0c67587709",
        "task_03_train.log": "451a7cae51c75b32550af94cbd1258f8ae39f20a1f1c37aa0b12cb3cf12b9428",
    },
    "taam-full-f32": {
        "checkpoint.bin": "22761dea59660d352fc738fe73cb38fde23806743ae9e0b4262faa03893eed7d",
        "checkpoint.bin.frozen": "d7829b5771b8e1297deea3ac92380413851875a2c8893652abfecc8cf8b87045",
        "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
        "summary.json": "9e51fbf7c176e2cabec97ee707601b02693ddd61c1a456256179b15d9fc3f5a3",
        "task_01_train.log": "53db96dc48b583c906a6f095253a2aecec2b16a9a610a2696a6f734d87a2f586",
        "task_02_train.log": "524ff3dae58b2e1f6828e53e4bc374a54942d65b525bcb1cea4a512100b92b81",
        "task_03_train.log": "160a96ff56d38b9157280ebae0dfdd2e74b6e503dc75eec4c4c562646877d1fd",
    },
    "taam-full-f32-wide": {
        "checkpoint.bin": "dabaae72ae9cd38e507ec184b61b80da299b48efb4b88bb59e457797d2cef83b",
        "checkpoint.bin.frozen": "858de85a5adeb121b8ce21e692bea73defcd76e9f7889f5e1b3df2b39441390f",
        "matrix.csv": "3ecf937403dbeb81d83ed985985d74064bda4f823a3722bfa3fe4038dbc0bcdf",
        "summary.json": "8d131d94901ef1567c008543b8785b11d26dde7cede21dbee8001d3260c46970",
        "task_01_train.log": "6c6df0ef6f28d83f23e72c64b68a1cd04c987cfa1b3d4df421f494c040c12ca6",
        "task_02_train.log": "90b0671e7f44d9c64344f7869c769bfec13988f71fd85c0af488bd243f3e9993",
    },
    "taam-full-f64": {
        "checkpoint.bin": "48e07303b02a3475ee42693a6c5dc7ef8ff0c195c5502b63bf591b1bafe847d0",
        "checkpoint.bin.frozen": "7b92c9e4732c0ed3e7137da03ba030d17b193b4ef2bde2e8700c14945d7cbf9f",
        "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
        "summary.json": "aa7243e31abb0f81b866493dc3dbbb729227f7861c5687d998fbaacac867705a",
        "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
        "task_02_train.log": "aa6b8741271921850f053d5114362231b1b9ce7280f8d15ab736ca0c67587709",
        "task_03_train.log": "451a7cae51c75b32550af94cbd1258f8ae39f20a1f1c37aa0b12cb3cf12b9428",
    },
    "taam-nsm_only-f64": {
        "checkpoint.bin": "eab5d6619d950954fd2416f6d0db10dba7b0ca610e2afc62f3cb4260b5521828",
        "checkpoint.bin.frozen": "2dd8d1b4e199ebebff106dceb27b08c1943d3298d1a118c116503fc2b8b870f4",
        "matrix.csv": "8001f17262fa3a545b4a0544b509c6a31846f4339ec99753a602671f545bf727",
        "summary.json": "53b160de2b5cc636f56c3c64a198080f1405fed198e4472e0ce7439bd454b8cd",
        "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
        "task_02_train.log": "626c7cf5aa0a58afd28d713773deccef3118a4cb18a6c8d434fde3083448a8b9",
        "task_03_train.log": "9093fb493ed7d3ce944548ba77e549700bc93701ff17f8e533e55f596e7cdfad",
    },
    "taam-retrieval_only-f64": {
        "checkpoint.bin": "eaff0afbe0db9f171c2ecf448156efb0a4f374f6ce79aa7618c2f74977cad790",
        "checkpoint.bin.frozen": "2dd8d1b4e199ebebff106dceb27b08c1943d3298d1a118c116503fc2b8b870f4",
        "matrix.csv": "d8c42f840d0df11a8edbda86ab6e1fadeaa91265849923c00e0d45a4e2823fc5",
        "summary.json": "ab8abce7a91fd55d5accb9779795761491b07c5013b4e9ad138491fd39dbfefb",
        "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
        "task_02_train.log": "626c7cf5aa0a58afd28d713773deccef3118a4cb18a6c8d434fde3083448a8b9",
        "task_03_train.log": "9093fb493ed7d3ce944548ba77e549700bc93701ff17f8e533e55f596e7cdfad",
    },
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_artifacts_match_golden_digests(tmp_path, variant):
    here = blas_fingerprint()
    if here != FINGERPRINT:
        pytest.skip(f"golden digests were recorded with {FINGERPRINT!r}; this machine has {here!r}")
    assert run_digests(tmp_path, *VARIANTS[variant]) == GOLDEN[variant]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    out = {}
    for variant, (config, flags) in sorted(VARIANTS.items()):
        with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
            out[variant] = run_digests(d, config, flags)
    json.dump({"fingerprint": blas_fingerprint(), "golden": out}, sys.stdout, indent=4)
    print()
