"""Marr-Hildreth and Canny edge detectors with synthetic ground-truth
benchmarking."""

from .canny import (CannyParams, GradientField, canny_detect, component_maxima, gradient, hysteresis,
                    nonmax_suppress, thinned_magnitude)
from .evaluation import (
    EvalReport,
    Scene,
    add_gaussian_noise,
    count_components,
    f_score,
    run_comparison,
    score,
    synth_circle,
    synth_rectangle,
    synth_step,
    tune_canny,
    tune_mh,
)
from .filtering import Kernel1D, Kernel2D, convolve_2d, convolve_separable, gaussian_kernel_1d, gaussian_radius
from .image_core import EdgeMap, FormatError, GrayImage, RgbImage, TruncationError, read_image, rgb_to_gray, write_image
from .marr_hildreth import MHParams, laplacian_of_smoothed, mh_detect, zero_crossings

__version__ = "0.1.0"

__all__ = [
    "CannyParams",
    "EdgeMap",
    "EvalReport",
    "FormatError",
    "GradientField",
    "GrayImage",
    "Kernel1D",
    "Kernel2D",
    "MHParams",
    "RgbImage",
    "Scene",
    "TruncationError",
    "add_gaussian_noise",
    "canny_detect",
    "component_maxima",
    "convolve_2d",
    "convolve_separable",
    "count_components",
    "f_score",
    "gaussian_kernel_1d",
    "gaussian_radius",
    "gradient",
    "hysteresis",
    "laplacian_of_smoothed",
    "mh_detect",
    "nonmax_suppress",
    "read_image",
    "rgb_to_gray",
    "run_comparison",
    "score",
    "synth_circle",
    "synth_rectangle",
    "synth_step",
    "thinned_magnitude",
    "tune_canny",
    "tune_mh",
    "write_image",
    "zero_crossings",
]
