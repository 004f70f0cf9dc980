"""The benchmark's span tracer must find every csipred name it patches.

`perfbench/tracing.py` wraps csipred functions by module or class attribute
(for example `recurrent.clip_grad_norm` or `hybrid.np_train`); renaming or
removing one of them makes `Tracer.install` raise `AttributeError`. This loads
the tracer from the checkout, installs and uninstalls it, and checks that
every patched attribute is back to its original object.
"""
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import csipred

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every csipred module and every class defined in one, by dotted name."""
    out = {}
    for info in pkgutil.iter_modules(csipred.__path__):
        mod = importlib.import_module(f"csipred.{info.name}")
        out[mod.__name__] = mod
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                out[f"{mod.__name__}.{name}"] = obj
    return out


def snapshot(spaces):
    return {key: dict(vars(ns)) for key, ns in spaces.items()}


def test_install_patches_hooks_and_uninstall_restores_them():
    tracer = load_tracing().Tracer()
    spaces = namespaces()
    before = snapshot(spaces)
    tracer.install()
    try:
        during = snapshot(spaces)
    finally:
        tracer.uninstall()
    after = snapshot(spaces)

    patched = {f"{key}.{attr}" for key, attrs in before.items()
               for attr, obj in attrs.items() if during[key].get(attr) is not obj}
    assert {"csipred.numcore.Adam.step",
            "csipred.recurrent.clip_grad_norm", "csipred.nprophet.clip_grad_norm",
            "csipred.nprophet.huber_loss", "csipred.hybrid.train_recurrent",
            "csipred.hybrid.np_train", "csipred.experiment.predict_batch",
            "csipred.experiment.build_hybrid",
            "csipred.experiment.train_feature"} <= patched
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for attr, obj in attrs.items():
            assert after[key][attr] is obj, f"{key}.{attr} not restored"
