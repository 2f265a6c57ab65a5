"""The compile benchmark in perfbench/ traces package callables by module and
attribute name. A renamed or removed callable would leave its layer at zero
in a traced run instead of failing, so check every name here."""

import importlib
import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_is_a_package_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    missing = [
        f"{layer}: mlqls.{module}.{attr}"
        for layer, (module, attr) in spans.LAYERS.items()
        if not callable(getattr(importlib.import_module(f"mlqls.{module}"), attr, None))
    ]
    assert not missing, missing
