from __future__ import annotations

import pytest

from crus.seeds import derive_seed


def test_labels_sharing_their_first_8_bytes_are_refused():
    first = derive_seed(0, "probe-label-one")
    with pytest.raises(ValueError, match="'probe-label-one' and 'probe-label-two' encode to the same integer"):
        derive_seed(0, "probe-label-two")
    assert derive_seed(0, "probe-label-one") == first
