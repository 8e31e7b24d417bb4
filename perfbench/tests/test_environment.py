"""The environment record reads the checkout's commit without git."""

from perfbench import harness

SHA = "0123456789abcdef0123456789abcdef01234567"
OTHER = "fedcba9876543210fedcba9876543210fedcba98"


def test_loose_ref(tmp_path):
    (tmp_path / ".git" / "refs" / "heads").mkdir(parents=True)
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tmp_path / ".git" / "refs" / "heads" / "main").write_text(SHA + "\n")
    assert harness._git_commit(tmp_path) == SHA


def test_packed_ref(tmp_path):
    (tmp_path / ".git").mkdir()
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tmp_path / ".git" / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n"
        f"{OTHER} refs/heads/feature\n"
        f"{SHA} refs/heads/main\n"
        f"^{OTHER}\n"
    )
    assert harness._git_commit(tmp_path) == SHA


def test_linked_work_tree_follows_gitdir_file(tmp_path):
    main = tmp_path / "main" / ".git"
    linked = main / "worktrees" / "wt"
    linked.mkdir(parents=True)
    (main / "packed-refs").write_text(f"{SHA} refs/heads/feature\n")
    (linked / "HEAD").write_text("ref: refs/heads/feature\n")
    (linked / "commondir").write_text("../..\n")
    work_tree = tmp_path / "wt"
    work_tree.mkdir()
    (work_tree / ".git").write_text("gitdir: ../main/.git/worktrees/wt\n")
    assert harness._git_commit(work_tree) == SHA


def test_detached_head_and_no_git(tmp_path):
    assert harness._git_commit(tmp_path) is None
    (tmp_path / ".git").mkdir()
    (tmp_path / ".git" / "HEAD").write_text(SHA + "\n")
    assert harness._git_commit(tmp_path) == SHA


def test_this_checkout_when_it_is_a_work_tree():
    commit = harness._git_commit(harness.ROOT)
    assert commit is None or len(commit) == 40
