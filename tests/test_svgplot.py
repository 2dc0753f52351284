import numpy as np

from squeezelab import svgplot


def test_ramp_stops_and_half_to_even_rounding():
    assert svgplot._ramp_colors(np.array([0.0, 0.25, 0.5, 0.75, 1.0])) == [
        f"rgb({r},{g},{b})" for r, g, b in svgplot._RAMP
    ]
    # u = 1/8 sits halfway between the first two stops: 63.5, 41.5 and 111.5 round to even
    assert svgplot._ramp_colors(np.array([0.125])) == ["rgb(64,42,112)"]
    # outside [0, 1] clips to the end stops
    assert svgplot._ramp_colors(np.array([[-0.5], [1.5]])) == ["rgb(68,1,84)", "rgb(253,231,37)"]
