"""Reference computations the output checks compare against.

* :func:`read_model` reads an ``INTC`` model file on its own, and
  :func:`forward64` runs the network in float64 with plain NumPy, so the
  ``predict`` check does not rest on the code it checks.
* :func:`stream_input` builds the standardized, zero-padded input of one
  stream window, as the stream contract defines it (criterion 8), for the
  bit-identity check against ``Network.predict_proba``.
"""

from __future__ import annotations

import csv
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Batch-normalization epsilon; part of the network's definition, not stored in
# the model file.
BN_EPSILON = 1e-5


def read_model(path: str) -> list[tuple]:
    """Layers of an INTC file: ("input", C, F), ("conv", W, b), ("pool", size,
    stride), ("bn", gamma, beta, mean, var, style) and ("dense", W, b)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"INTC":
        raise ValueError(f"{path}: not an INTC model file")
    version, count = struct.unpack_from("<II", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported model format version {version}")
    offset = 12
    layers = []

    def floats(n):
        nonlocal offset
        values = np.frombuffer(data, dtype="<f4", count=n, offset=offset).astype(np.float64)
        offset += 4 * n
        return values

    for _ in range(count):
        tag = data[offset:offset + 4].decode("ascii")
        (ndims,) = struct.unpack_from("<I", data, offset + 4)
        dims = struct.unpack_from(f"<{ndims}I", data, offset + 8)
        offset += 8 + 4 * ndims
        if tag == "INPT":
            layers.append(("input", *dims))
        elif tag == "CONV":
            out, inp, kernel = dims
            layers.append(("conv", floats(out * inp * kernel).reshape(dims), floats(out)))
        elif tag == "POOL":
            layers.append(("pool", *dims))
        elif tag == "BNRM":
            features, style = dims
            layers.append(("bn", *(floats(features) for _ in range(4)), style))
        elif tag == "DENS":
            out, inp = dims
            layers.append(("dense", floats(out * inp).reshape(dims), floats(out)))
        else:
            raise ValueError(f"{path}: unknown record {tag!r}")
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return layers


def forward64(layers: list[tuple], x: np.ndarray) -> np.ndarray:
    """Class probabilities for one (channels, frames) input, in float64."""
    a = np.asarray(x, dtype=np.float64)
    dense_total = sum(1 for layer in layers if layer[0] == "dense")
    dense_seen = 0
    for layer in layers:
        kind = layer[0]
        if kind == "conv":
            weights, bias = layer[1], layer[2]
            taps = weights.shape[2]
            frames = a.shape[1] - taps + 1
            out = np.zeros((weights.shape[0], frames))
            for k in range(taps):
                out += weights[:, :, k] @ a[:, k:k + frames]
            a = np.maximum(out + bias[:, None], 0.0)
        elif kind == "pool":
            size, stride = layer[1], layer[2]
            a = sliding_window_view(a, size, axis=1)[:, ::stride].max(axis=2)
        elif kind == "bn":
            gamma, beta, mean, var, style = layer[1:]
            if style == 1:
                a = a.reshape(-1)
            shape = (-1, 1) if a.ndim == 2 else (-1,)
            a = (gamma.reshape(shape) * (a - mean.reshape(shape))
                 / np.sqrt(var.reshape(shape) + BN_EPSILON) + beta.reshape(shape))
        elif kind == "dense":
            a = layer[1] @ a.reshape(-1) + layer[2]
            dense_seen += 1
            if dense_seen < dense_total:
                a = np.maximum(a, 0.0)
    shifted = np.exp(a - a.max())
    return shifted / shifted.sum()


def read_stats(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std from a ``channel,mean,std`` file, as float64."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return (np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows]))


def read_trace(path: str) -> np.ndarray:
    """(channels, frames) float32 values of a trace CSV (time column dropped)."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 1:].T.astype(np.float32)


def predict_input64(values: np.ndarray, mean: np.ndarray, std: np.ndarray,
                    input_frames: int) -> np.ndarray:
    """A recorded trace standardized in float64 and zero-padded at the tail."""
    out = np.zeros((values.shape[0], input_frames))
    out[:, :values.shape[1]] = (values - mean[:, None]) / std[:, None]
    return out


def stream_input(frames: np.ndarray, mean: np.ndarray, std: np.ndarray,
                 window: int, input_frames: int) -> np.ndarray:
    """Model input for a window whose real frames are ``frames`` (n, channels).

    Real frames sit at the end of the window (zeros in front while warming
    up), are standardized in float64 and rounded to float32; the tail up to
    ``input_frames`` stays zero.
    """
    real = frames.T.astype(np.float64)
    padded = np.zeros((frames.shape[1], input_frames), dtype=np.float32)
    padded[:, window - real.shape[1]:window] = (
        (real - mean[:, None]) / std[:, None]).astype(np.float32)
    return padded
