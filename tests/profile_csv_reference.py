"""The profile CSV writer as it stood before it shared the trace writer's
row formatter: each cell formatted on its own with an f-string and written
through ``csv.writer``. Tests compare the bytes of
``microfreq.profiles.write_profiles_csv`` against it.
"""

import csv

PROFILE_COLUMNS = ("t", "load_pu", "v_w1", "v_w2", "g_eff1", "g_eff2", "t_amb")


def write_profiles_csv(path, profiles):
    """Write a ProfileSet in the interchange column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_COLUMNS)
        for k in range(profiles.t.shape[0]):
            writer.writerow([
                f"{profiles.t[k]:.15e}",
                f"{profiles.load_pu[k]:.15e}",
                f"{profiles.v_w[0, k]:.15e}",
                f"{profiles.v_w[1, k]:.15e}",
                f"{profiles.g_eff[0, k]:.15e}",
                f"{profiles.g_eff[1, k]:.15e}",
                f"{profiles.t_amb[k]:.15e}",
            ])
