"""Golden blob digests: every interpolation codec's bytes are pinned.

SHA-256 of the blob each interpolation-based codec (cuSZ-i, SZ3, QoZ)
emits for fixed-seed fields over 1D/2D/3D, float32/float64 and both
error-bound modes. ``lossless="none"`` keeps the digests independent of
the zlib build. A refactor of any hot layer (traversal, quantizer,
Huffman coder, container) must leave every digest unchanged; a change
that alters the format on purpose regenerates them with::

    PYTHONPATH=src python tests/test_golden_blobs.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import smooth_field
from repro.registry import get_compressor

CODECS = ("cuszi", "sz3", "qoz")
SHAPES = {"1d": (600,), "2d": (40, 36), "3d": (20, 18, 16)}
DTYPES = {"f32": np.float32, "f64": np.float64}
MODES = {"abs": 1e-3, "rel": 1e-4}

GOLDEN = {
    "cuszi-1d-f32-abs": "c0aa9dcbe87ed74deaa49d0b5e2e82a64d0e4becdc6ad5d72f029a3438b5bbe3",
    "cuszi-1d-f32-rel": "ccda8bd2fe4b7050e1dc22479a2e00b374e40e3b741b53a94e892c89abfd285f",
    "cuszi-1d-f64-abs": "d664950926569ff6d9ba3003ea3819dc9dd33944acbacc74478419d215f2e6bd",
    "cuszi-1d-f64-rel": "2fe227af541ec6163717f0bfe39e63785bf639df92e7b0da222c48dc5e2bb37f",
    "cuszi-2d-f32-abs": "3ad23b755afcad57559a6549e07d7c8a44d9d37a3f014133c378fda3828b4ca1",
    "cuszi-2d-f32-rel": "43ab6a8239815b411863438ecc6f29c35d0fcdd63119e1892345ff6dcc1cf4bd",
    "cuszi-2d-f64-abs": "f564089f5b6eb2a237aa8c7daf3df7199e964c00ba014dd0e2cd2ebb451db9d4",
    "cuszi-2d-f64-rel": "6110b84725cb66a3020b81df46c62e6c26528fb8265199c7beeee21029f98217",
    "cuszi-3d-f32-abs": "9f060f07c0eedaea1d28d8d45fba4b87e02b3cdcee7589282bbb10ab99afe743",
    "cuszi-3d-f32-rel": "437574fa78f6d1d7a5c56491992d0b5d55cdb59827d124c49fb29385863363fe",
    "cuszi-3d-f64-abs": "dbd33f388ab1199e4c50d095ecb0b12c49149dc4e8ed669b18c5b717d282be09",
    "cuszi-3d-f64-rel": "a02419db3cdb84828c7a7888ee8c0b8601a7bddbf6a2fc95677b17a70df07a08",
    "sz3-1d-f32-abs": "c74d7ce56c4a74786b6042a1fcd315d9df374c2ad48be7858fd68b12c49ee36d",
    "sz3-1d-f32-rel": "e69ef2bd33deb0269f8de4deb0153bafda444d4f58c6aafa41c2f85c17d58537",
    "sz3-1d-f64-abs": "3d3fc0fc166886b538d684884023502e0dc29393b930cf0c3ad55cc8785b5ecd",
    "sz3-1d-f64-rel": "a7c81ad9926c119a1ee86929894d24c638a0c6220bd05f7f8c1cee0e1fcc9168",
    "sz3-2d-f32-abs": "c315f4fa7cdc72a97ed7d61390798345ede73ed0777e9ee8e838a54709dce484",
    "sz3-2d-f32-rel": "d2618b09d87828bcf12a7f7fe04545f7cbef23c43665dad53e792c7b352d1184",
    "sz3-2d-f64-abs": "e60a98c023ce1e2caf27ee66d538e5e8fe5775f38c46d2c1a2e0f468b16a9609",
    "sz3-2d-f64-rel": "a477b89b14846930fd68a71e85b52a5f331b6c60c02192aee2da48d9c883d92b",
    "sz3-3d-f32-abs": "340abb44ba0463279241f6dc96357b53c53f960cb700c36b8ec941d884cb02f2",
    "sz3-3d-f32-rel": "f1970ab5fa336e395cf16ff74e0d56d18bd497904c857d06be7e6eda76370455",
    "sz3-3d-f64-abs": "f4627e82abe291575daa780b45108f854cfe2d6da1414efc175055205db5300d",
    "sz3-3d-f64-rel": "5c6e24371f85656a1b9fa53246e96d1de4f9bfabe840395083b8d0725eac1487",
    "qoz-1d-f32-abs": "9ac3321ac0b127ba2cf039451d7f41de7a0831e9e0fc00450442a8fb3c7be066",
    "qoz-1d-f32-rel": "b15171f90e4d34bde68edae75fc721e521334194fbd5e0b68d2face3910ec3b3",
    "qoz-1d-f64-abs": "7bcfa1f396837318ca2df48f5ef672bb045fb27e9a438fa7a35cbf0d5713430e",
    "qoz-1d-f64-rel": "c38669056f7e662a2e7cb8639532f882a099791a5b11bb5ca7abfbc91d11f6c0",
    "qoz-2d-f32-abs": "4362371015d1cd53236657c4b02d048d163642c9f951e61319ab90c6c5656dcd",
    "qoz-2d-f32-rel": "222163e55479093d90f60004c17c5f615343bd81e94321d23567546ff3fe1005",
    "qoz-2d-f64-abs": "c68cc0fa0d2cb38ad2cb9961e1e4016d23fbb78c1669c919bfe51c416d29e706",
    "qoz-2d-f64-rel": "9cc953038a2c30d00a1563caee403c5f8d36a00143386ebcc0bbd1f1ebabc26a",
    "qoz-3d-f32-abs": "d20fe9a9fc516f02fb1aea388f1c42a689d700cae3b589e03ebf7f07bd5439fc",
    "qoz-3d-f32-rel": "800c93d6cc6b3cd4a42142cb69d169f4f7c09b72930054db0947affc0f69e2fa",
    "qoz-3d-f64-abs": "12d8e9df7dad1a0311d80b73987169fc3b8a277929d5e328e131ef6ab70f03b7",
    "qoz-3d-f64-rel": "cdbe24ce10ae2114f58f8713d3bd63bcdd9166f891a65dd83e99c1eea13a7632",
}


def _cases():
    for codec in CODECS:
        for dim, shape in SHAPES.items():
            for dt in DTYPES:
                for mode in MODES:
                    yield f"{codec}-{dim}-{dt}-{mode}", codec, shape, dt, mode


def _digest(codec, shape, dt, mode):
    data = smooth_field(shape, seed=len(shape)).astype(DTYPES[dt])
    comp = get_compressor(codec, eb=MODES[mode], mode=mode, lossless="none")
    blob = comp.compress(data)
    return hashlib.sha256(blob).hexdigest(), comp, blob, data


@pytest.mark.parametrize("key,codec,shape,dt,mode",
                         list(_cases()), ids=[c[0] for c in _cases()])
def test_blob_digest_pinned(key, codec, shape, dt, mode):
    digest, comp, blob, data = _digest(codec, shape, dt, mode)
    assert digest == GOLDEN[key]
    out = comp.decompress(blob)
    assert out.dtype == data.dtype and out.shape == data.shape


if __name__ == "__main__":
    for key, codec, shape, dt, mode in _cases():
        print(f'    "{key}": "{_digest(codec, shape, dt, mode)[0]}",')
