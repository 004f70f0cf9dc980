"""Two-stage hybrid predictor: recurrent forecasts feed the additive model.

Stage 1 is a recurrent model, trained on the training windows and then run
over every window of each split it is given to produce D-step forecasts.
Stage 2 is the additive model, trained with the training forecasts attached
as a known-future regressor, so it learns to correct the recurrent output.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .config import json_digest
from .errors import ContractViolation
from .numcore import check_windows, unstack
from .nprophet import (NpConfig, NpModel, config_dict, np_predict_batch,
                       np_train)
from .recurrent import RecurrentModel, predict_batch, train_recurrent


def _weights_digest(params) -> str:
    """sha256 over name + little-endian float64 bytes, in sorted name order."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.asarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass
class HybridModel:
    rnn: RecurrentModel
    np_model: NpModel
    provenance: dict

    def to_dict(self, with_params=True):
        return {"format": "csipred-hybrid-v1",
                "rnn": self.rnn.to_dict(with_params),
                "np": self.np_model.to_dict(with_params),
                "provenance": self.provenance}


def build_hybrid(splits, rnn_model: RecurrentModel, np_cfg: NpConfig, seed=0,
                 dataset_digest=""):
    """Train the two stages on identical window splits.

    `splits` maps split names (at least "train") to SupervisedWindowSet; the
    recurrent model and the additive model consume the same windows.
    Returns (HybridModel, rnn loss history, np loss history, regressors dict).

    With the split stacks of a `datapipe.PreparedDataset`, a stacked recurrent
    model and a list of seeds, both stages train stacked: the HybridModel
    holds the stacked stages and one provenance per stream, and the histories
    are per stream. Stage 1 forecasts each split's stack in one
    `predict_batch` call, as `hybrid_predict_batch` does, which gives each
    stream the bytes of its own forecast. Both stages predict in parts of at
    most `numcore.PREDICT_WINDOWS` windows per stream, so inference memory
    does not grow with the split; a stacked part holds those windows of
    every stream, so it grows with the group, whose size
    `experiment.GROUP_CACHE_BYTES` bounds. Each stage refuses training
    windows of another shape than its own: `np_cfg` must name their d and D,
    as `rnn_model` does. The additive config is checked before stage 1
    trains, so a mismatch costs no training.
    """
    if "train" not in splits:
        raise ContractViolation("splits must include a 'train' set")
    train = splits["train"]
    check_windows(train, np_cfg.d, np_cfg.D)
    rnn_history = train_recurrent(rnn_model, train, seed=seed)
    regressors = {name: predict_batch(rnn_model, ws.X)
                  for name, ws in splits.items()}
    np_cfg = replace(np_cfg, regressor_enabled=True)
    np_model, np_history = np_train(train, np_cfg, seed=seed,
                                    regressors=regressors["train"])
    stacked = isinstance(seed, list)
    provenance = [make_provenance(s, dataset_digest, m, np_cfg)
                  for s, m in zip(seed if stacked else [seed],
                                  unstack(rnn_model))]
    model = HybridModel(rnn=rnn_model, np_model=np_model,
                        provenance=provenance if stacked else provenance[0])
    return model, rnn_history, np_history, regressors


def make_provenance(seed, dataset_digest, rnn_model, np_cfg):
    """How a hybrid was built, from its trained stage 1, with a digest over it."""
    out = {
        "seed": seed,
        "dataset_digest": dataset_digest,
        "rnn_config": {"arch": rnn_model.arch, **vars(rnn_model.config)},
        "np_config": config_dict(np_cfg),
        "rnn_weights_digest": _weights_digest(rnn_model.params),
    }
    out["digest"] = json_digest(out)
    return out


def hybrid_predict_batch(model: HybridModel, t_origins, X):
    rnn_out = predict_batch(model.rnn, X)
    return np_predict_batch(model.np_model, t_origins, X, rnn_out)
