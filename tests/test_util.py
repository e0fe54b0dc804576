import pytest
from hypothesis import given
from hypothesis import strategies as st

from causal_al.errors import ConfigError, SchemaError
from causal_al.util import checked_names

NAMES = st.lists(st.sampled_from(["a", "b", "c", "d", "e", "x,y", ""]), max_size=8)


@given(names=NAMES, allowed=st.none() | st.lists(st.sampled_from("abcde"), unique=True))
def test_checked_names_raises_exactly_at_the_first_unknown_or_repeated_name(names, allowed):
    first = next(
        (i for i, name in enumerate(names)
         if (allowed is not None and name not in allowed) or name in names[:i]),
        None,
    )
    if first is None:
        assert checked_names(iter(names), allowed, "k", ConfigError) == tuple(names)
        return
    name = names[first]
    if allowed is not None and name not in allowed:
        reason = f"is not one of {','.join(allowed)}"
    else:
        reason = "is named twice"
    with pytest.raises(ConfigError) as exc:
        checked_names(iter(names), allowed, "k", ConfigError)
    assert str(exc.value) == f"k: {name!r} {reason}"


def test_checked_names_defaults():
    assert checked_names(["a", "b"]) == ("a", "b")
    with pytest.raises(SchemaError, match="^names: 'a' is named twice$"):
        checked_names(["a", "a"])
