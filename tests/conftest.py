import pytest

import meandre.verify


@pytest.fixture
def closed_form_fault(monkeypatch):
    """Make verify's closed-form reduction overstate every index by 1."""
    real = meandre.verify.reduction_chain

    def faulty(q, *, closed_form=False):
        chain = real(q, closed_form=closed_form)
        return chain._replace(total_index=chain.total_index + 1) if closed_form else chain

    monkeypatch.setattr(meandre.verify, "reduction_chain", faulty)


@pytest.fixture
def component_counts_fault(monkeypatch):
    """Make verify's `component_counts`, the route `meandre index` prints,
    overstate every cycle count by 1."""
    real = meandre.verify.component_counts

    def faulty(q):
        counts = real(q)
        return counts._replace(cycles=counts.cycles + 1)

    monkeypatch.setattr(meandre.verify, "component_counts", faulty)
