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
    "cuszi-1d-f32-abs": "40fc61e4886f5f18f9801538049297ed32128526bd25d9939c19beb833110174",
    "cuszi-1d-f32-rel": "c9f699ce51e319a30e8118976aaa4e6469a7e56a831a1ab41e8b36c755e0a34f",
    "cuszi-1d-f64-abs": "5d88426182ae30626a19653eb42e4f1693d95c8b6bc6bf5226800f6b74fb3b27",
    "cuszi-1d-f64-rel": "0e6b1a17af701977abf2ec09bb2e8421ff8af787bd98339f7642a00ca3929a65",
    "cuszi-2d-f32-abs": "4cda009b318d1891f1c42ec5d7a076672b9a46ff3dee5b549e6b1b4fa0865157",
    "cuszi-2d-f32-rel": "c079cd94d934c5d8aa6aed884ae8c054b9f7346b42a76698dfc5ac323cda9507",
    "cuszi-2d-f64-abs": "5af9ef1ccbf44a0decc9547140bc8048f9a79e5ee55f59c857175893176d6cf9",
    "cuszi-2d-f64-rel": "5e2098b81f01a2fbd2643cf1f652f062b41f768f0071d7701d903ae793b32160",
    "cuszi-3d-f32-abs": "8500b63581eb7e7dd2b2a5d7c1a9604216d266f3424cfef0257ab60a32d723c6",
    "cuszi-3d-f32-rel": "de7394641d9faa8b31fb2244f7e64bf530df1860777adc3611e91ee8854bd8f6",
    "cuszi-3d-f64-abs": "c785f2dfd7362b483bffcebcb2c5c3934bc54688e229a5d18bd2269244d39ebe",
    "cuszi-3d-f64-rel": "b45ca2ea4a82a56a34915a24901f14230fd53559fe46724bc7fc560238616e4c",
    "sz3-1d-f32-abs": "d5ff1596ed2236a221bf4b29ebf3c328e98f5e1c573444adfcacd5a738ede5d4",
    "sz3-1d-f32-rel": "66d1fde651601c140c94967ee12766fbce2b79873f112e35485ebb43bd198a56",
    "sz3-1d-f64-abs": "148b3ef7233423d3fc7d4f16d3a0260c19440e276c1d4595f1c87b3c13f0e482",
    "sz3-1d-f64-rel": "6e150d0783c44a0b9abd13da64083b0524e60076744d0d73bfa4fc057756eeac",
    "sz3-2d-f32-abs": "cefc9df3ecc64bbb76e044d36bc37f49b8e1899afbed0cf7f059413a9edac32e",
    "sz3-2d-f32-rel": "2f56076c9d7820e8ae07869c67e56d2efd5604b2121443010775862d1d288fc5",
    "sz3-2d-f64-abs": "fd2429815574ea91503a4f39f536ab0de3fd6c0bcaa6b9942c41e5189a04fbdb",
    "sz3-2d-f64-rel": "49b589fa9756b4c791251ada034b5fe4b59e3988269b7486efb121e5d06edd8e",
    "sz3-3d-f32-abs": "59037a4be72bd3d36134382d4f2de0de84e17051116b67ab64418231162ef216",
    "sz3-3d-f32-rel": "a0d46a458f1fdb1f75a4792aa9e6ca27166e29facb228a23413a650c3d0fdcb4",
    "sz3-3d-f64-abs": "1b61e1b934048e8071350254caf04444b4e65e7a0a599d637137d426e8ccd5e4",
    "sz3-3d-f64-rel": "bf8c7e2daf5c911e56bc3c0b75ec04c1980280f9e87302e2dbf61877c7826b57",
    "qoz-1d-f32-abs": "a1986e58c1177b60e2d8b05dca9ef9a1f25119ec45b91baa010a5f04e00ace52",
    "qoz-1d-f32-rel": "edfbc044dfef6b880990c0c0dee79f813dbd298961f930f9ffb663ebbb5508e7",
    "qoz-1d-f64-abs": "bd95ff3f595e38481fe15a8700c7aca2e6d30c122c35ac63c8273703a5940b8e",
    "qoz-1d-f64-rel": "54f2ca206f996cf5f4838b8e3ed2ad1a45c9e687c9d37d596dd61a05f1531a6d",
    "qoz-2d-f32-abs": "dae663337a7bc420655a42de6e43ff4d07f9533000fe76d0490e0ec85ed98fbd",
    "qoz-2d-f32-rel": "37a6c51f84a12864720fc799e8d5fb497ee5e921a0b81ab07f3c98284288ec5b",
    "qoz-2d-f64-abs": "fbcc9a156795ba01475e76bf7aa903c2a4bacce0bcd4803f2f51b91a84445e0d",
    "qoz-2d-f64-rel": "8c70e6a22df797f2aba51977481017bab3cf60167d65eecb8a645ce588773989",
    "qoz-3d-f32-abs": "049417a3079b89676c2cba6f7ae2dcc985affdb2f9778add75492f723422b80a",
    "qoz-3d-f32-rel": "657e323284d02b8cc603d6ddf457402c55bf9ceebbb70cb10209205351bd103f",
    "qoz-3d-f64-abs": "5b28d6241be2812365e973a73016be67f61cfbf3469bdcbedf984e02477262e1",
    "qoz-3d-f64-rel": "f949b720f2f2331a455cab110ba2f950a44077f9cf8801c28d62ea34693cf713",
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
