"""tools/compare_ops.py: the JSON paths it names for an op that differs."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "compare_ops.py")
_spec = importlib.util.spec_from_file_location("compare_ops", _PATH)
compare_ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_ops)


def test_json_paths_name_top_level_keys_and_list_indices():
    old = '{"refined":[{"q":["1"]},{"error":"e"}],"total":"1","vertices":[[0,"0"]]}\n'
    new = '{"refined":[{"q":["1"]},{"q":["1"]}],"total":"2","vertices":[[0,"0"]]}\n'
    assert compare_ops.json_paths(old, new) == ["refined[1]", "total"]
    assert compare_ops.json_paths('{"a":[1]}', '{"a":[1,2],"b":0}') == ["a[1]", "b"]
    assert compare_ops.json_paths(old, old) == []
    # text output, or JSON that is no object, names no path
    assert compare_ops.json_paths("order: 5\n", "order: 6\n") is None
    assert compare_ops.json_paths("[1]", "[2]") is None
