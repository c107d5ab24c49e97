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
Digests are recorded for two kernels of one build, and the test records each
that the CPU supports in a child process that makes OpenBLAS use it.  Where
no kernel is supported, or a fingerprint has no digests, the test skips and
says why.  To record the digests of the current code on a kernel, run
`OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_golden.py`
(or `SkylakeX`).
"""

import ctypes
import functools
import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import taam
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


SKYLAKEX = "numpy 2.4.6; OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"
HASWELL = SKYLAKEX.replace("SkylakeX", "Haswell")
# BLAS fingerprint -> variant -> artifact -> SHA-256
GOLDEN = {
    SKYLAKEX: {
        "finetune-f64": {
            "checkpoint.bin": "5ae2ad27a912aadde13fe6455df2d5a1ab70741a5ab457552ff24dc1fe51e297",
            "checkpoint.bin.frozen": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "aa7951b49a945927955a6ad1e207b0017e218256b80ff8a518fdbba25dca4493",
            "summary.json": "7246be840017e3d3f99bf6a9011d67b128ad4ed0339a52d31fa77317cfb1a7f7",
            "task_01_train.log": "954525712e3cb1084dab2f0fbebd98a03c4e070c485a1bf5701ed45380a799ec",
            "task_02_train.log": "ac5bc530e5cb9256effccac5fba6f9da356e3202320a9bb1b3b688894602ad62",
            "task_03_train.log": "d2dcd03fe587b12d872e526d857310a3211eca87478e0d01e0f5c27ace150ad9",
        },
        "oracle-f64": {
            "checkpoint.bin": "14277e79575c26c95eee70c81c1fe40f97ab5e2d8679c1fd8aab7de3bb19a5ac",
            "checkpoint.bin.frozen": "c7d07fe717d03f1635f916cfac0214505084ffd8c4a9bf6ea9dddd1fc528e73c",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "4d4837c4298aecd1ab9f1446850654ee6dd4a4ca3b11b2241f3ee694581ff460",
            "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
            "task_02_train.log": "6d6178293d89fdfb15eca010ec0da09af1902740344476a54805c0a48579215d",
            "task_03_train.log": "64fb83c01e118732005e2da2153bd78163e1d8fc2c70ce59095b2d6e5da557ef",
        },
        "taam-full-f32": {
            "checkpoint.bin": "bb4b114c9916e7be7bbd1db0c0f6740a003e0bb90db59338282cf977ba1b1d00",
            "checkpoint.bin.frozen": "c42f8ac08a4431bdd0d280d670a16f09b5f456583996dbf67a0d7e65d5e6547f",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "9e51fbf7c176e2cabec97ee707601b02693ddd61c1a456256179b15d9fc3f5a3",
            "task_01_train.log": "3784eb9eb2fb5882323493043d6c5d85b96111fc862dbd68e7b063861e874261",
            "task_02_train.log": "2619d4c8742f2036dfe7b7977cd7179d28f8edb872e4ecf60585ef7c855f6bc1",
            "task_03_train.log": "ae69f3012d4d2a4c9461e31fa2d0d7dab87824fb2dd3048d2a5ca2fcba9dd845",
        },
        "taam-full-f32-wide": {
            "checkpoint.bin": "d2e05c6f09150477b9df64f19bfddcd06b5cfb18fbd4d4470b545043caea0076",
            "checkpoint.bin.frozen": "9fb5a5a3e454e48bbee3ee665d39223ed140106a4b58b05595f877a69ce06dbb",
            "matrix.csv": "3ecf937403dbeb81d83ed985985d74064bda4f823a3722bfa3fe4038dbc0bcdf",
            "summary.json": "8d131d94901ef1567c008543b8785b11d26dde7cede21dbee8001d3260c46970",
            "task_01_train.log": "6c6df0ef6f28d83f23e72c64b68a1cd04c987cfa1b3d4df421f494c040c12ca6",
            "task_02_train.log": "46c4b167971ab2ca37469b57edae4f29d0cccce37586175b132c4aeca4ac2d48",
        },
        "taam-full-f64": {
            "checkpoint.bin": "cb421d5dd9cca2f5a6e77da01c33ca7392bcbc5c50c6645ed63dc69f6b4539d8",
            "checkpoint.bin.frozen": "c7d07fe717d03f1635f916cfac0214505084ffd8c4a9bf6ea9dddd1fc528e73c",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "aa7243e31abb0f81b866493dc3dbbb729227f7861c5687d998fbaacac867705a",
            "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
            "task_02_train.log": "6d6178293d89fdfb15eca010ec0da09af1902740344476a54805c0a48579215d",
            "task_03_train.log": "64fb83c01e118732005e2da2153bd78163e1d8fc2c70ce59095b2d6e5da557ef",
        },
        "taam-nsm_only-f64": {
            "checkpoint.bin": "3e39493833e123e9d7e443fc39ff7ac05e5d14d63a16b979a3f7a9beabd367cf",
            "checkpoint.bin.frozen": "e7e1ea65ba7e787e04a4fe487cd617b1b3758ae3774275e648916a6f7a223ad6",
            "matrix.csv": "8001f17262fa3a545b4a0544b509c6a31846f4339ec99753a602671f545bf727",
            "summary.json": "53b160de2b5cc636f56c3c64a198080f1405fed198e4472e0ce7439bd454b8cd",
            "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
            "task_02_train.log": "1e673277ad674360bb85fd07826b3a4394f956a504ee694f9a300ee3535b1d02",
            "task_03_train.log": "9093fb493ed7d3ce944548ba77e549700bc93701ff17f8e533e55f596e7cdfad",
        },
        "taam-retrieval_only-f64": {
            "checkpoint.bin": "766cca07e5860a6da697892cdb2fd40ed11207e41a8b2d9c81f610125b27caeb",
            "checkpoint.bin.frozen": "e7e1ea65ba7e787e04a4fe487cd617b1b3758ae3774275e648916a6f7a223ad6",
            "matrix.csv": "d8c42f840d0df11a8edbda86ab6e1fadeaa91265849923c00e0d45a4e2823fc5",
            "summary.json": "ab8abce7a91fd55d5accb9779795761491b07c5013b4e9ad138491fd39dbfefb",
            "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
            "task_02_train.log": "1e673277ad674360bb85fd07826b3a4394f956a504ee694f9a300ee3535b1d02",
            "task_03_train.log": "9093fb493ed7d3ce944548ba77e549700bc93701ff17f8e533e55f596e7cdfad",
        },
    },
    HASWELL: {
        "finetune-f64": {
            "checkpoint.bin": "eda765a8fe094410580260627aab29d528a3494d1bb33cc3e7798a20b4face19",
            "checkpoint.bin.frozen": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "aa7951b49a945927955a6ad1e207b0017e218256b80ff8a518fdbba25dca4493",
            "summary.json": "7246be840017e3d3f99bf6a9011d67b128ad4ed0339a52d31fa77317cfb1a7f7",
            "task_01_train.log": "fd4cd3ef89c72505d9c41540b90fda7bcdd25a2b1e04110c70d2cc2d88947298",
            "task_02_train.log": "72eb097f78174c03879fef38e2a9f59962e8f3ee2bf31370624b53e03317db4e",
            "task_03_train.log": "727e3f5c7e57cfabee099a44c4bd03db8c9242b351d7dffc8b63e8244dc97434",
        },
        "oracle-f64": {
            "checkpoint.bin": "7feecf0cad8ca900d0b4247387578f24f6ebfcc82f5c618b1451a187a4c25b24",
            "checkpoint.bin.frozen": "857095517e9126aa5f14d361b0b1e33a399d13199dcb359363e879c219b2c2cd",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "4d4837c4298aecd1ab9f1446850654ee6dd4a4ca3b11b2241f3ee694581ff460",
            "task_01_train.log": "c9dd075db562f3ba6984790f690dd5171e16d4817b56323e91652388252cdfcb",
            "task_02_train.log": "aa6b8741271921850f053d5114362231b1b9ce7280f8d15ab736ca0c67587709",
            "task_03_train.log": "e556a34459b4314e2124087f7dc26c78a823a15bb182f440c6b502500f61ceaf",
        },
        "taam-full-f32": {
            "checkpoint.bin": "67d912c5e38324637c76f9fcea2972557091f397693cd922d622d9fc88b12729",
            "checkpoint.bin.frozen": "cd08c00ffe48a76593d3efc79d23dbdadb088060a5419e704506877383281989",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "9e51fbf7c176e2cabec97ee707601b02693ddd61c1a456256179b15d9fc3f5a3",
            "task_01_train.log": "641190737f2e2d445ba85603b754357c4a7d25d3a1fdb721f8903c3b0862de96",
            "task_02_train.log": "a92b123c5ef6de5db2c358c3e812688b295429e838bedc082610d1e4e9433bd6",
            "task_03_train.log": "fb0b5506745b1275a604fed2cf60521428f354e98ab1b52ede0a0dbbb2dbab9c",
        },
        "taam-full-f32-wide": {
            "checkpoint.bin": "e6c621f76b868a7aee807411114358704551eca53b6432d253438101d481ad9f",
            "checkpoint.bin.frozen": "e0022315fbbdae428b476368d6364001ef6c4359f1cc9f6f211b19c1b9c350b2",
            "matrix.csv": "3ecf937403dbeb81d83ed985985d74064bda4f823a3722bfa3fe4038dbc0bcdf",
            "summary.json": "8d131d94901ef1567c008543b8785b11d26dde7cede21dbee8001d3260c46970",
            "task_01_train.log": "6c6df0ef6f28d83f23e72c64b68a1cd04c987cfa1b3d4df421f494c040c12ca6",
            "task_02_train.log": "6744eea64490e89e0c8b6296fd0f986f6a289b20a1ec99fae38dea88cc3c9c6a",
        },
        "taam-full-f64": {
            "checkpoint.bin": "02796fe4df9187d7c26c358367e65cb0589b8fd8d7d820e4f423134b2892a80d",
            "checkpoint.bin.frozen": "857095517e9126aa5f14d361b0b1e33a399d13199dcb359363e879c219b2c2cd",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "aa7243e31abb0f81b866493dc3dbbb729227f7861c5687d998fbaacac867705a",
            "task_01_train.log": "c9dd075db562f3ba6984790f690dd5171e16d4817b56323e91652388252cdfcb",
            "task_02_train.log": "aa6b8741271921850f053d5114362231b1b9ce7280f8d15ab736ca0c67587709",
            "task_03_train.log": "e556a34459b4314e2124087f7dc26c78a823a15bb182f440c6b502500f61ceaf",
        },
        "taam-nsm_only-f64": {
            "checkpoint.bin": "0ae5079c981f2ea8497d9bca16bec17035381557c753e22209d7c940170ff2ac",
            "checkpoint.bin.frozen": "c6774a13888f5882015c4e7fc298a9dc2342c09a5e48ebac9b3eeab0b2b9f385",
            "matrix.csv": "8001f17262fa3a545b4a0544b509c6a31846f4339ec99753a602671f545bf727",
            "summary.json": "53b160de2b5cc636f56c3c64a198080f1405fed198e4472e0ce7439bd454b8cd",
            "task_01_train.log": "c9dd075db562f3ba6984790f690dd5171e16d4817b56323e91652388252cdfcb",
            "task_02_train.log": "d3a19261593ef45d9d60c26f26f676aa53955d8e9448bd6cf0db31d452bd9535",
            "task_03_train.log": "53e6403ad90c447bcac7f5c580efd72eea0f06b063c7c362cf0bd4aed0f79b3d",
        },
        "taam-retrieval_only-f64": {
            "checkpoint.bin": "eb16093a41118815e18f603ad40fcbcab0fc2860ede854457ed56ca411fcccfd",
            "checkpoint.bin.frozen": "c6774a13888f5882015c4e7fc298a9dc2342c09a5e48ebac9b3eeab0b2b9f385",
            "matrix.csv": "d8c42f840d0df11a8edbda86ab6e1fadeaa91265849923c00e0d45a4e2823fc5",
            "summary.json": "ab8abce7a91fd55d5accb9779795761491b07c5013b4e9ad138491fd39dbfefb",
            "task_01_train.log": "c9dd075db562f3ba6984790f690dd5171e16d4817b56323e91652388252cdfcb",
            "task_02_train.log": "d3a19261593ef45d9d60c26f26f676aa53955d8e9448bd6cf0db31d452bd9535",
            "task_03_train.log": "53e6403ad90c447bcac7f5c580efd72eea0f06b063c7c362cf0bd4aed0f79b3d",
        },
    },
}

# Each kernel that digests are recorded on, with the CPU flags it needs.
KERNELS = {"Haswell": {"avx2", "fma"}, "SkylakeX": {"avx512f"}}


def cpu_flags() -> set[str]:
    """The CPU's feature flags, as /proc/cpuinfo lists them; none where it cannot be read."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


@functools.cache
def recording(kernel: str) -> dict:
    """What this file, run as a script in a child process, records with
    OpenBLAS made to use `kernel`.  OpenBLAS reads OPENBLAS_CORETYPE when it
    loads, so only a new process can switch its kernel."""
    src = os.path.dirname(os.path.dirname(taam.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_artifacts_match_golden_digests(variant):
    """Each artifact of `variant` has its golden digest on each kernel the
    CPU supports; a failure names every (kernel, artifact) pair that differs.

    A change that reorders arithmetic on purpose (say, multiplying two
    matrices of a chain first) moves rounding, so it changes digests on both
    kernels.  Re-record both sets, each in a process of its own, with
    `OPENBLAS_CORETYPE=SkylakeX PYTHONPATH=src python tests/test_golden.py`
    and again with `OPENBLAS_CORETYPE=Haswell`; put each output's "golden"
    under its "fingerprint" in GOLDEN, and check that only the artifacts the
    change should move have moved.
    """
    kernels = sorted(k for k, needs in KERNELS.items() if needs <= cpu_flags())
    if not kernels:
        pytest.skip(f"this CPU supports none of the kernels digests are recorded on, {sorted(KERNELS)}")
    recorded = {k: recording(k) for k in kernels}
    unknown = {k: r["fingerprint"] for k, r in recorded.items() if r["fingerprint"] not in GOLDEN}
    if unknown:
        pytest.skip(f"no golden digests are recorded for the BLAS fingerprints {unknown}")
    differ = []
    for kernel, r in recorded.items():
        got, want = r["golden"][variant], GOLDEN[r["fingerprint"]][variant]
        differ += [f"{kernel} {name}" for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)]
    assert not differ, f"{variant}: these artifacts differ from their golden digests: {', '.join(differ)}"


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
