"""Golden tuner results: the winners of the three threshold sweeps, pinned by sha256.

The paper compares Canny and Marr-Hildreth under a variety of situations.
Here each situation is a 64x64 scene tuned at sigma 1, 1.4 and 2 by
tune_canny, tune_mh and tune_mh with hysteresis, in that order, at the
default tolerance and grid: the noisy step at contrast 0.25 and 0.5 for
each noise stddev (noise seed 1), and the clean circle and rectangle
scenes. A digest is the sha256 of the repr of every (params, report) pair
of its scene family, in tuning order; dataclass reprs print every float
with round-trip precision, so any change to a winner or a report changes
a digest.

Each scene is tuned at every sigma in turn, and each sigma by all three
tuners, so consecutive tunes share one scene's truth and image as they do
when both detectors are tuned on one scene.
"""

import hashlib

import pytest

from edgebench.evaluation import circle_scene, noisy_step_suite, rectangle_scene, tune_canny, tune_mh

SIGMAS = (1.0, 1.4, 2.0)
CONTRASTS = (0.25, 0.5)
NOISE_SEED = 1

DIGESTS = {
    "noise-0": "c8e18f7e4add8d1e9b8897d3753ab4ee3ca4510038c3bf9c2359669ed45d6dbe",
    "noise-0.05": "de5e65f43f295e8bd5bb8180d64009c8fd33192ca251e57e08d7c0c9fe1aec40",
    "noise-0.1": "e98984c90c58a4e88bdbc6485acd851647eef208dd3a156710a5741b04108cb6",
    "noise-0.2": "b10288fa62888cfd1cf2970dd17f17e74e8c8ec9c5832c8a82cf4ae6e9d4b436",
    "circle": "919b27b482e95950040c6132e0bbfb563ef8e7344bf50692e582ea54f70ffd8e",
    "rectangle": "acffd7312b9251ab3cd1e24c64efd7eabe57a61573f793df3e2e54e8ba269580",
}


def scenes(family: str) -> list:
    if family == "circle":
        return [circle_scene(64)]
    if family == "rectangle":
        return [rectangle_scene(64)]
    stddev = float(family.removeprefix("noise-"))
    return [noisy_step_suite([NOISE_SEED], size=64, contrast=c, noise_stddev=stddev)[0] for c in CONTRASTS]


def tune_all(family: str) -> list:
    results = []
    for scene in scenes(family):
        for sigma in SIGMAS:
            results += [tune_canny(scene, sigma), tune_mh(scene, sigma), tune_mh(scene, sigma, use_hysteresis=True)]
    return results


@pytest.mark.parametrize("family", DIGESTS)
def test_tuner_results(family):
    assert hashlib.sha256(repr(tune_all(family)).encode()).hexdigest() == DIGESTS[family]
