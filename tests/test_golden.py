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
            "checkpoint.bin": "e0209540929ee641abf3370cf51bb2cd48e54e90ab8aced544d1bb5d41f058ed",
            "checkpoint.bin.frozen": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "aa7951b49a945927955a6ad1e207b0017e218256b80ff8a518fdbba25dca4493",
            "summary.json": "7246be840017e3d3f99bf6a9011d67b128ad4ed0339a52d31fa77317cfb1a7f7",
            "task_01_train.log": "db6f83369de7a8530bcefd76d3f1b5825908c9348b3ebbdeba45a67ea43a87f6",
            "task_02_train.log": "85ab3b8914ae55991ab30d7e5b67b6bc7f6e20d569c3e087c047decf0042822d",
            "task_03_train.log": "1c6d6523872607b0ca65629e5d775952a5e4234afc1001983cb153162723f000",
        },
        "oracle-f64": {
            "checkpoint.bin": "d9967593aea5c23ebcb051229ddca62480d7431397933859cfc54c64c93e7dfe",
            "checkpoint.bin.frozen": "7b92c9e4732c0ed3e7137da03ba030d17b193b4ef2bde2e8700c14945d7cbf9f",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "4d4837c4298aecd1ab9f1446850654ee6dd4a4ca3b11b2241f3ee694581ff460",
            "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
            "task_02_train.log": "aa6b8741271921850f053d5114362231b1b9ce7280f8d15ab736ca0c67587709",
            "task_03_train.log": "451a7cae51c75b32550af94cbd1258f8ae39f20a1f1c37aa0b12cb3cf12b9428",
        },
        "taam-full-f32": {
            "checkpoint.bin": "7ce98de4f9a146d8293b1228909f27ed99dcf561ead4a85d95653ac7949be84d",
            "checkpoint.bin.frozen": "dfdab69de1a1df836b648304b3506f8ba294261c0bdab931739a5f078e93327e",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "9e51fbf7c176e2cabec97ee707601b02693ddd61c1a456256179b15d9fc3f5a3",
            "task_01_train.log": "53db96dc48b583c906a6f095253a2aecec2b16a9a610a2696a6f734d87a2f586",
            "task_02_train.log": "524ff3dae58b2e1f6828e53e4bc374a54942d65b525bcb1cea4a512100b92b81",
            "task_03_train.log": "160a96ff56d38b9157280ebae0dfdd2e74b6e503dc75eec4c4c562646877d1fd",
        },
        "taam-full-f32-wide": {
            "checkpoint.bin": "d56e5bcf478d4ef5d845c8245d0344c3e930f41c31cd232caed3eaa360c721c8",
            "checkpoint.bin.frozen": "37c0e25f739855d6076d5c4ab3e30c787799e74032aa53aee500f98125f8c6b2",
            "matrix.csv": "3ecf937403dbeb81d83ed985985d74064bda4f823a3722bfa3fe4038dbc0bcdf",
            "summary.json": "8d131d94901ef1567c008543b8785b11d26dde7cede21dbee8001d3260c46970",
            "task_01_train.log": "6c6df0ef6f28d83f23e72c64b68a1cd04c987cfa1b3d4df421f494c040c12ca6",
            "task_02_train.log": "90b0671e7f44d9c64344f7869c769bfec13988f71fd85c0af488bd243f3e9993",
        },
        "taam-full-f64": {
            "checkpoint.bin": "b574f8481e0fd350ddb5321a4992548f55bffc3407f85dacd7bbb93ee4b69d05",
            "checkpoint.bin.frozen": "7b92c9e4732c0ed3e7137da03ba030d17b193b4ef2bde2e8700c14945d7cbf9f",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "aa7243e31abb0f81b866493dc3dbbb729227f7861c5687d998fbaacac867705a",
            "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
            "task_02_train.log": "aa6b8741271921850f053d5114362231b1b9ce7280f8d15ab736ca0c67587709",
            "task_03_train.log": "451a7cae51c75b32550af94cbd1258f8ae39f20a1f1c37aa0b12cb3cf12b9428",
        },
        "taam-nsm_only-f64": {
            "checkpoint.bin": "96ed04c391eac941732b8ae97297a210ba1682bcfdaddf0fc3794ede3a15e683",
            "checkpoint.bin.frozen": "2dd8d1b4e199ebebff106dceb27b08c1943d3298d1a118c116503fc2b8b870f4",
            "matrix.csv": "8001f17262fa3a545b4a0544b509c6a31846f4339ec99753a602671f545bf727",
            "summary.json": "53b160de2b5cc636f56c3c64a198080f1405fed198e4472e0ce7439bd454b8cd",
            "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
            "task_02_train.log": "626c7cf5aa0a58afd28d713773deccef3118a4cb18a6c8d434fde3083448a8b9",
            "task_03_train.log": "9093fb493ed7d3ce944548ba77e549700bc93701ff17f8e533e55f596e7cdfad",
        },
        "taam-retrieval_only-f64": {
            "checkpoint.bin": "1e01fd7b84b0b02d5450f631120752933a633096cbab587e788d6652ce20d5c2",
            "checkpoint.bin.frozen": "2dd8d1b4e199ebebff106dceb27b08c1943d3298d1a118c116503fc2b8b870f4",
            "matrix.csv": "d8c42f840d0df11a8edbda86ab6e1fadeaa91265849923c00e0d45a4e2823fc5",
            "summary.json": "ab8abce7a91fd55d5accb9779795761491b07c5013b4e9ad138491fd39dbfefb",
            "task_01_train.log": "ccfb8156257486546fe9ef53a6517d8b540c51a464e063f9822e917a71ebeb96",
            "task_02_train.log": "626c7cf5aa0a58afd28d713773deccef3118a4cb18a6c8d434fde3083448a8b9",
            "task_03_train.log": "9093fb493ed7d3ce944548ba77e549700bc93701ff17f8e533e55f596e7cdfad",
        },
    },
    HASWELL: {
        "finetune-f64": {
            "checkpoint.bin": "332c0ddff9728d6fe53c96c96c53fd1886f1f1755d99138a8b3444d9f5b86320",
            "checkpoint.bin.frozen": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "aa7951b49a945927955a6ad1e207b0017e218256b80ff8a518fdbba25dca4493",
            "summary.json": "7246be840017e3d3f99bf6a9011d67b128ad4ed0339a52d31fa77317cfb1a7f7",
            "task_01_train.log": "64c9461ea9a6d4c5b4c7da1b403df1575ae1e973492b62d11e35f82bf77fd2ed",
            "task_02_train.log": "be0d9cb11537eab8d3bce186827a53ccb4c08636e1256499b6b21b1edfb34959",
            "task_03_train.log": "73e90b91cd5aea70441960b859dc3b00e5ed5875c48d9b7a6d7d000efd7404d0",
        },
        "oracle-f64": {
            "checkpoint.bin": "ec953837572529498ddcaf219a7df4d9b52076bd865e3a762fe0af0dbb214a96",
            "checkpoint.bin.frozen": "122add0ed99691a9c469d12926cb74d8be81b8e45a08f1e8c05a473ff11b9e52",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "4d4837c4298aecd1ab9f1446850654ee6dd4a4ca3b11b2241f3ee694581ff460",
            "task_01_train.log": "29006071b7b8a47134c59ae4f9df3893588a1658d294fe480e50db4f85a620e0",
            "task_02_train.log": "67ac4b772098aa3d206d63239ca71b1181b01d2e1c127e5fde4cdf313c8b941e",
            "task_03_train.log": "2acd3a627f9dca8a7db6c2c962f5bf164ecddc3e6dad2acd9dfef4cb8254b92a",
        },
        "taam-full-f32": {
            "checkpoint.bin": "5dc3ee1121477e5e8b3c4c0455fb1841cd5899dbacc8ef7d1aac72aa63e25f01",
            "checkpoint.bin.frozen": "db7ae3ad65f052bdba8fd891edb07d175aab0e2fe2cfad52c29102dd2c12cc2a",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "9e51fbf7c176e2cabec97ee707601b02693ddd61c1a456256179b15d9fc3f5a3",
            "task_01_train.log": "641190737f2e2d445ba85603b754357c4a7d25d3a1fdb721f8903c3b0862de96",
            "task_02_train.log": "b585c832b0e5661d45846bbbdf1ae963f9c3385ed27af481f8f60ecc9433e4e4",
            "task_03_train.log": "436d72d2dc9504c654061ae643ecc4d204baeb8747211f10db32c97d8f060e1f",
        },
        "taam-full-f32-wide": {
            "checkpoint.bin": "6994f1c1f05d7a1d3176dcd5ea74114cb93869560cbf1ef912d3677a966ea452",
            "checkpoint.bin.frozen": "7629800df2a2466c041f37913d98c634eb3a1b2cd52733ffb4b321ef50916614",
            "matrix.csv": "3ecf937403dbeb81d83ed985985d74064bda4f823a3722bfa3fe4038dbc0bcdf",
            "summary.json": "8d131d94901ef1567c008543b8785b11d26dde7cede21dbee8001d3260c46970",
            "task_01_train.log": "4e7d995e0619cf5a719f569a8d099a705388602988e3d55ba2701cb79dcc1b16",
            "task_02_train.log": "befea3ce4cc16c981526eeb2444e929658ed21b249b7ccb53f93a9c4ef65e899",
        },
        "taam-full-f64": {
            "checkpoint.bin": "d0e5cf1a15654d484531dc40853c4a2714b01921abde4182f963987a2c94d35b",
            "checkpoint.bin.frozen": "122add0ed99691a9c469d12926cb74d8be81b8e45a08f1e8c05a473ff11b9e52",
            "matrix.csv": "7136e86a046cdef9c1ecc33f92f3ea12ea4bb31a74e168eef9c4834afa2a3d84",
            "summary.json": "aa7243e31abb0f81b866493dc3dbbb729227f7861c5687d998fbaacac867705a",
            "task_01_train.log": "29006071b7b8a47134c59ae4f9df3893588a1658d294fe480e50db4f85a620e0",
            "task_02_train.log": "67ac4b772098aa3d206d63239ca71b1181b01d2e1c127e5fde4cdf313c8b941e",
            "task_03_train.log": "2acd3a627f9dca8a7db6c2c962f5bf164ecddc3e6dad2acd9dfef4cb8254b92a",
        },
        "taam-nsm_only-f64": {
            "checkpoint.bin": "53121113955af278951129cb35f545dfbc177956b70c573a4ae0012cc867c499",
            "checkpoint.bin.frozen": "32c0e9de4468bdd5eb7e54a67c46cd69890c8346442794c512678cdfcbed6b85",
            "matrix.csv": "8001f17262fa3a545b4a0544b509c6a31846f4339ec99753a602671f545bf727",
            "summary.json": "53b160de2b5cc636f56c3c64a198080f1405fed198e4472e0ce7439bd454b8cd",
            "task_01_train.log": "29006071b7b8a47134c59ae4f9df3893588a1658d294fe480e50db4f85a620e0",
            "task_02_train.log": "1e673277ad674360bb85fd07826b3a4394f956a504ee694f9a300ee3535b1d02",
            "task_03_train.log": "9093fb493ed7d3ce944548ba77e549700bc93701ff17f8e533e55f596e7cdfad",
        },
        "taam-retrieval_only-f64": {
            "checkpoint.bin": "d116d7f19232a6fe76c3be4cbeabe8d12597a82018ad3d520343d6990b6c15b6",
            "checkpoint.bin.frozen": "32c0e9de4468bdd5eb7e54a67c46cd69890c8346442794c512678cdfcbed6b85",
            "matrix.csv": "d8c42f840d0df11a8edbda86ab6e1fadeaa91265849923c00e0d45a4e2823fc5",
            "summary.json": "ab8abce7a91fd55d5accb9779795761491b07c5013b4e9ad138491fd39dbfefb",
            "task_01_train.log": "29006071b7b8a47134c59ae4f9df3893588a1658d294fe480e50db4f85a620e0",
            "task_02_train.log": "1e673277ad674360bb85fd07826b3a4394f956a504ee694f9a300ee3535b1d02",
            "task_03_train.log": "9093fb493ed7d3ce944548ba77e549700bc93701ff17f8e533e55f596e7cdfad",
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
    kernels = sorted(k for k, needs in KERNELS.items() if needs <= cpu_flags())
    if not kernels:
        pytest.skip(f"this CPU supports none of the kernels digests are recorded on, {sorted(KERNELS)}")
    recorded = {k: recording(k) for k in kernels}
    unknown = {k: r["fingerprint"] for k, r in recorded.items() if r["fingerprint"] not in GOLDEN}
    if unknown:
        pytest.skip(f"no golden digests are recorded for the BLAS fingerprints {unknown}")
    got = {k: r["golden"][variant] for k, r in recorded.items()}
    assert got == {k: GOLDEN[r["fingerprint"]][variant] for k, r in recorded.items()}


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
