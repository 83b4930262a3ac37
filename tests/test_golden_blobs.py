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
    "cuszi-1d-f32-abs": "f93ec041dce0fcf22d2f7cc1ca5411234153e1d7b36f4733c2c40d0718c6907e",
    "cuszi-1d-f32-rel": "11d5f2567957e83a1dc1878536baab1ea8163bec8736331468d02c59c7b28bb7",
    "cuszi-1d-f64-abs": "6df5677fef2d04a1efb07b4a4d08c84f9de1754405d3a4e0ceaad26dddb4af7a",
    "cuszi-1d-f64-rel": "7bdde5b12a36352f3ad013c8ff7cf457ac506cde97b725632978c70caee52d79",
    "cuszi-2d-f32-abs": "f153302a60a764636d04dd4478a625911300d1713154934fde69dcde7f7a5951",
    "cuszi-2d-f32-rel": "b1c800dbb90d85335f2a716bba2c9b4bd70e00e6efa93504d344e6e26316d402",
    "cuszi-2d-f64-abs": "c264c030999fce1084a5eef03f2730458c1dbe28d9ddd89ef652274058a8803a",
    "cuszi-2d-f64-rel": "bf0abeee6c988e8c4496b6fcd34a5d04295e302dddd478270301ce19046ab678",
    "cuszi-3d-f32-abs": "80913d7fde2988fc25282444b78182fb4dcc633030ef93915806cb5eb0c6b38f",
    "cuszi-3d-f32-rel": "8f23056431878eef12d4959a74aba43b1c38b0dafb8d69eefab949f61512b9b8",
    "cuszi-3d-f64-abs": "562519b5c08c6a763a7fc603e7bc9575d8469c16d2eb8e03510eda2d305637da",
    "cuszi-3d-f64-rel": "ef3bee83db252539d596beabda48ca826a3dbc8ecd2811b5c62c821d8900cf50",
    "sz3-1d-f32-abs": "bf108572d31d3ba12a50766e923802560507cb55209c602fee7f5bf499da7d31",
    "sz3-1d-f32-rel": "b261e5cbe573586920cfb5fd573bfceb1a6a0c129ef04975dd9807b88a407977",
    "sz3-1d-f64-abs": "bc78463cfbaae26c85356b37255874b95694b4c44e84c38982ee658baa9017d9",
    "sz3-1d-f64-rel": "38cc3cffe49af7c29e71696f83c9955b83c66887a6de358217b97a856e77aa6a",
    "sz3-2d-f32-abs": "11dda833935d6640ab41ce248ed5a93c677fdf097e645e627c023a18c6490a82",
    "sz3-2d-f32-rel": "5d5de8cfcd9f2d683ef00c197a9a87a0b8945f7a52842a7a74b1e389a7c61ce5",
    "sz3-2d-f64-abs": "af26c349cd9997532ea20aa68ed52565f3184ed56ee68b7a6ca6ec5b8541397a",
    "sz3-2d-f64-rel": "49e23a1486765edcb1f980b74c15f9e075f9cfce196abf0a70df1aad74da51ef",
    "sz3-3d-f32-abs": "8068c634c5b42dc66f19afcb20305cdbe501cdf54990cf639b0d10c2676e0b54",
    "sz3-3d-f32-rel": "72262b524ba9fcf17f81e9023aeb47d7b1e74590c075798a945a97a2775b3dde",
    "sz3-3d-f64-abs": "0fb3bf3bfe39a02d46231b3b1e6c3da3e6e0e947225de08a64a4b0b8f6af9a07",
    "sz3-3d-f64-rel": "b1b0c1c32ef901be8b18ae25ac1953348fd4421618c315effb6d2aa05a63ae69",
    "qoz-1d-f32-abs": "d4899bba68d774f713378abc8f729b07618522e758192f2d7ab350f4115e7bed",
    "qoz-1d-f32-rel": "bdb3cf36d9beedb7551e21f8fb3f3cd9e19880549b0529e2c886fa4eeab455c7",
    "qoz-1d-f64-abs": "86843ca2872e847e84004675ce797f5d0a5c7d44a29a4732f26cdc38c6a6ba20",
    "qoz-1d-f64-rel": "bdda7e56bb2503ea142f46a432cbc3e0721c7046716f39207ece233590bb7467",
    "qoz-2d-f32-abs": "8f690fc3ab4ae39741bc53d25b00c1d0160829175de8347fa32a026f481bfc35",
    "qoz-2d-f32-rel": "fbf451ae2c219c416f60032d68d2c8027b8c85e33457c31b2a40c89a638d19c6",
    "qoz-2d-f64-abs": "a89fc3e0c33a07e413d4461beaaececabd076dd09d832b3f8e48e20269e0b3e6",
    "qoz-2d-f64-rel": "47c580b12903c4ea107178044754291b3309f8a6ed7acab010fc32799016864a",
    "qoz-3d-f32-abs": "92be7058328ba7e75109c97132443a135ef74ea373f6c18d26e77ae7fd21b61f",
    "qoz-3d-f32-rel": "26bffbb03375fcfa209377b0cf661a5866114a0482dff6107fecadb633e82489",
    "qoz-3d-f64-abs": "2781d929f612a522e845e0eeb42b2ae0dac1cb2653bfd2439bca67fba74fb542",
    "qoz-3d-f64-rel": "a576d4aa3d316426b75622253ccf7191424393acf5ab1299fece6094ec4006e5",
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
