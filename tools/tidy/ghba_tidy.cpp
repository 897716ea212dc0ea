// ghba-tidy: project-specific static checks for the GHBA codebase.
//
// A standalone clang libTooling tool (the container that builds the repo day
// to day ships only GCC; CI installs LLVM dev packages and builds this with
// -DGHBA_TIDY_PLUGIN=ON). It implements three checks, reported in the
// familiar clang-tidy one-line format and gated at zero diagnostics by
// .github/workflows/lint.yml:
//
//   ghba-unchecked-status
//     A call returning ghba::Status or ghba::Result<T> whose value is
//     discarded. `(void)call()` silences it ONLY when the same line or the
//     line directly above carries a comment justifying the discard.
//
//   ghba-mutex-rank
//     Every ghba::Mutex must be constructed from a literal ghba::LockRank
//     enumerator (no computed ranks — the deadlock proof needs a total
//     order readable off the declaration). Additionally, lexically nested
//     ghba::MutexLock scopes whose ranks violate the acquire-down rule
//     (inner rank must be strictly below every outer rank) are diagnosed
//     statically; dynamic nesting through calls is covered at runtime by
//     GHBA_LOCKDEP.
//
//   ghba-blocking-on-event-thread
//     Functions annotated GHBA_REQUIRES(<ThreadRole named io*/event*>) run
//     on the epoll event thread, and so does every scope that adopts such a
//     role with `ThreadRoleGuard g(&io_role_)` (the event loop itself); any
//     blocking primitive (fsync, sleep, poll/select, accept,
//     TcpConnection::Connect/SendFrame/RecvFrame, ...) reachable from one
//     through same-TU calls stalls every connection and is an error.
//
// Exit status: 0 when clean, 1 when any diagnostic fired, 2 on usage /
// parse errors — run_clang_tidy.sh treats a missing or non-loadable tool
// as a hard failure, never as "no findings".

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "clang/AST/ASTContext.h"
#include "clang/AST/Attr.h"
#include "clang/AST/Decl.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/Expr.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/ParentMapContext.h"
#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/ASTMatchers/ASTMatchers.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Tooling/CommonOptionsParser.h"
#include "clang/Tooling/Tooling.h"
#include "llvm/Support/CommandLine.h"
#include "llvm/Support/raw_ostream.h"

using namespace clang;
using namespace clang::ast_matchers;

namespace {

llvm::cl::OptionCategory GhbaTidyCategory("ghba-tidy options");

// ---------------------------------------------------------------------------
// Diagnostic sink: clang-tidy-style lines, deduped across TUs (headers are
// parsed once per including TU; without dedup every header finding would
// repeat once per source file).
// ---------------------------------------------------------------------------

int g_diag_count = 0;
std::set<std::string> g_seen;

void Report(const SourceManager& sm, SourceLocation loc, llvm::StringRef check,
            llvm::StringRef message) {
  PresumedLoc ploc = sm.getPresumedLoc(loc);
  if (ploc.isInvalid()) return;
  std::string key = std::string(ploc.getFilename()) + ":" +
                    std::to_string(ploc.getLine()) + ":" + check.str() + ":" +
                    message.str();
  if (!g_seen.insert(key).second) return;
  ++g_diag_count;
  llvm::errs() << ploc.getFilename() << ":" << ploc.getLine() << ":"
               << ploc.getColumn() << ": error: " << message << " [" << check
               << "]\n";
}

// True for locations inside system headers or outside the analyzed project;
// we never diagnose those.
bool InProjectCode(const SourceManager& sm, SourceLocation loc) {
  if (loc.isInvalid() || sm.isInSystemHeader(loc)) return false;
  if (loc.isMacroID()) loc = sm.getSpellingLoc(loc);
  return loc.isValid() && !sm.isInSystemHeader(loc);
}

// The source text of the line containing `loc` (spelling location).
llvm::StringRef LineText(const SourceManager& sm, SourceLocation loc,
                         int line_delta = 0) {
  loc = sm.getSpellingLoc(loc);
  FileID fid = sm.getFileID(loc);
  int line = static_cast<int>(sm.getSpellingLineNumber(loc)) + line_delta;
  if (line < 1) return {};
  bool invalid = false;
  llvm::StringRef buf = sm.getBufferData(fid, &invalid);
  if (invalid) return {};
  SourceLocation start = sm.translateLineCol(fid, line, 1);
  if (start.isInvalid()) return {};
  unsigned off = sm.getFileOffset(start);
  if (off >= buf.size()) return {};
  std::size_t end = buf.find('\n', off);
  return buf.slice(off, end == llvm::StringRef::npos ? buf.size() : end);
}

bool LineHasComment(const SourceManager& sm, SourceLocation loc) {
  return LineText(sm, loc).contains("//") || LineText(sm, loc).contains("/*") ||
         LineText(sm, loc, -1).contains("//") ||
         LineText(sm, loc, -1).contains("/*");
}

// ---------------------------------------------------------------------------
// Type helpers
// ---------------------------------------------------------------------------

const CXXRecordDecl* RecordOf(QualType qt) {
  return qt.getCanonicalType()->getAsCXXRecordDecl();
}

bool IsNamed(const CXXRecordDecl* rd, llvm::StringRef qualified) {
  return rd != nullptr && rd->getQualifiedNameAsString() == qualified;
}

bool IsFallibleType(QualType qt) {
  const CXXRecordDecl* rd = RecordOf(qt);
  if (rd == nullptr) return false;
  std::string name = rd->getQualifiedNameAsString();
  return name == "ghba::Status" || name == "ghba::Result";
}

// Finds the first ghba::LockRank enumerator referenced anywhere inside an
// expression (the Mutex constructor argument), or null.
const EnumConstantDecl* FindLockRankEnumerator(const Stmt* s) {
  if (s == nullptr) return nullptr;
  if (const auto* dre = dyn_cast<DeclRefExpr>(s)) {
    if (const auto* ecd = dyn_cast<EnumConstantDecl>(dre->getDecl())) {
      const auto* ed = dyn_cast<EnumDecl>(ecd->getDeclContext());
      if (ed != nullptr && ed->getQualifiedNameAsString() == "ghba::LockRank") {
        return ecd;
      }
    }
  }
  for (const Stmt* child : s->children()) {
    if (const EnumConstantDecl* found = FindLockRankEnumerator(child)) {
      return found;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Check 1: ghba-unchecked-status
// ---------------------------------------------------------------------------

class UncheckedStatusCallback : public MatchFinder::MatchCallback {
 public:
  void run(const MatchFinder::MatchResult& result) override {
    const auto* call = result.Nodes.getNodeAs<CallExpr>("call");
    ASTContext& ctx = *result.Context;
    const SourceManager& sm = ctx.getSourceManager();
    if (!InProjectCode(sm, call->getBeginLoc())) return;
    if (!IsFallibleType(call->getCallReturnType(ctx))) return;

    // Walk up through the implicit wrappers clang inserts around a
    // full-expression; what we find decides whether the value is consumed.
    DynTypedNode node = DynTypedNode::create(*call);
    const ExplicitCastExpr* void_cast = nullptr;
    for (int hops = 0; hops < 8; ++hops) {
      DynTypedNodeList parents = ctx.getParents(node);
      if (parents.empty()) return;
      DynTypedNode parent = parents[0];
      if (parent.get<ExprWithCleanups>() != nullptr ||
          parent.get<ConstantExpr>() != nullptr ||
          parent.get<MaterializeTemporaryExpr>() != nullptr ||
          parent.get<ImplicitCastExpr>() != nullptr ||
          parent.get<CXXBindTemporaryExpr>() != nullptr ||
          parent.get<ParenExpr>() != nullptr) {
        node = parent;
        continue;
      }
      if (const auto* cast = parent.get<ExplicitCastExpr>()) {
        if (cast->getTypeAsWritten()->isVoidType()) {
          void_cast = cast;
          node = parent;
          continue;
        }
        return;  // cast to a real type: value consumed
      }
      // Statement positions in which the full-expression result is dropped.
      bool discarded = false;
      if (parent.get<CompoundStmt>() != nullptr ||
          parent.get<CaseStmt>() != nullptr ||
          parent.get<DefaultStmt>() != nullptr ||
          parent.get<LabelStmt>() != nullptr) {
        discarded = true;
      } else if (const auto* fs = parent.get<ForStmt>()) {
        const Stmt* self = node.get<Stmt>();
        discarded = self == fs->getInc() || self == fs->getBody();
      } else if (const auto* is = parent.get<IfStmt>()) {
        const Stmt* self = node.get<Stmt>();
        discarded = self == is->getThen() || self == is->getElse();
      } else if (const auto* ws = parent.get<WhileStmt>()) {
        discarded = node.get<Stmt>() == ws->getBody();
      }
      if (!discarded) return;  // consumed (assignment, return, condition, ...)

      SourceLocation loc = call->getBeginLoc();
      if (void_cast == nullptr) {
        Report(sm, loc, "ghba-unchecked-status",
               "return value of fallible call is discarded; check it, or "
               "'(void)' it with a comment explaining why ignoring is sound");
      } else if (!LineHasComment(sm, void_cast->getBeginLoc())) {
        Report(sm, loc, "ghba-unchecked-status",
               "'(void)' discard of a fallible call without a justifying "
               "comment on the same or preceding line");
      }
      return;
    }
  }
};

// ---------------------------------------------------------------------------
// Check 2: ghba-mutex-rank
// ---------------------------------------------------------------------------

class MutexRankDeclCallback : public MatchFinder::MatchCallback {
 public:
  void run(const MatchFinder::MatchResult& result) override {
    const SourceManager& sm = result.Context->getSourceManager();
    const Expr* init = nullptr;
    SourceLocation loc;
    if (const auto* fd = result.Nodes.getNodeAs<FieldDecl>("field")) {
      init = fd->getInClassInitializer();
      loc = fd->getLocation();
    } else if (const auto* vd = result.Nodes.getNodeAs<VarDecl>("var")) {
      if (vd->isLocalVarDeclOrParm() && !vd->hasInit()) return;  // params
      init = vd->getInit();
      loc = vd->getLocation();
    } else {
      return;
    }
    if (!InProjectCode(sm, loc)) return;
    if (FindLockRankEnumerator(init) != nullptr) return;
    Report(sm, loc, "ghba-mutex-rank",
           "ghba::Mutex must be initialized with a literal ghba::LockRank "
           "enumerator (constructor-forwarded or computed ranks defeat the "
           "static lock order)");
  }
};

// Resolves the Mutex a MutexLock guards back to its declaration, then to
// its declared rank. Best-effort: unresolvable targets (pointers passed in
// from elsewhere) are skipped — the runtime lockdep covers those.
struct RankedLock {
  std::int64_t rank;
  std::string rank_name;
  const NamedDecl* mutex_decl;
  SourceLocation at;
};

class LockNestVisitor : public RecursiveASTVisitor<LockNestVisitor> {
 public:
  explicit LockNestVisitor(ASTContext& ctx) : ctx_(ctx) {}

  // MutexLock lifetime = enclosing compound statement: restore the held
  // stack when the scope closes.
  bool TraverseCompoundStmt(CompoundStmt* cs) {
    std::size_t depth = held_.size();
    bool keep_going = RecursiveASTVisitor::TraverseCompoundStmt(cs);
    held_.resize(depth);
    return keep_going;
  }

  bool VisitVarDecl(VarDecl* vd) {
    if (!IsNamed(RecordOf(vd->getType()), "ghba::MutexLock")) return true;
    const NamedDecl* target = GuardedMutexDecl(vd->getInit());
    if (target == nullptr) return true;
    const EnumConstantDecl* rank = DeclaredRank(target);
    if (rank == nullptr) return true;
    std::int64_t value = rank->getInitVal().getExtValue();
    const SourceManager& sm = ctx_.getSourceManager();
    if (!held_.empty() && value >= held_.back().rank &&
        InProjectCode(sm, vd->getLocation())) {
      Report(sm, vd->getLocation(), "ghba-mutex-rank",
             "lock acquired at rank " + rank->getNameAsString() +
                 " while already holding rank " + held_.back().rank_name +
                 "; ranks must strictly decrease inward (acquire-down rule)");
    }
    held_.push_back({value, rank->getNameAsString(), target, vd->getLocation()});
    return true;
  }

 private:
  // VarDecl init -> CXXConstructExpr(MutexLock, &<mutex>) -> decl of <mutex>.
  static const NamedDecl* GuardedMutexDecl(const Expr* init) {
    if (init == nullptr) return nullptr;
    init = init->IgnoreImplicit();
    const auto* ctor = dyn_cast<CXXConstructExpr>(init);
    if (ctor == nullptr || ctor->getNumArgs() < 1) return nullptr;
    const Expr* arg = ctor->getArg(0)->IgnoreParenImpCasts();
    const auto* addr = dyn_cast<UnaryOperator>(arg);
    if (addr == nullptr || addr->getOpcode() != UO_AddrOf) return nullptr;
    const Expr* target = addr->getSubExpr()->IgnoreParenImpCasts();
    if (const auto* me = dyn_cast<MemberExpr>(target)) {
      return dyn_cast<NamedDecl>(me->getMemberDecl());
    }
    if (const auto* dre = dyn_cast<DeclRefExpr>(target)) {
      return dyn_cast<NamedDecl>(dre->getDecl());
    }
    return nullptr;
  }

  static const EnumConstantDecl* DeclaredRank(const NamedDecl* mutex_decl) {
    if (const auto* fd = dyn_cast<FieldDecl>(mutex_decl)) {
      return FindLockRankEnumerator(fd->getInClassInitializer());
    }
    if (const auto* vd = dyn_cast<VarDecl>(mutex_decl)) {
      return FindLockRankEnumerator(vd->getInit());
    }
    return nullptr;
  }

  ASTContext& ctx_;
  std::vector<RankedLock> held_;
};

class MutexRankNestCallback : public MatchFinder::MatchCallback {
 public:
  void run(const MatchFinder::MatchResult& result) override {
    const auto* fn = result.Nodes.getNodeAs<FunctionDecl>("fn");
    if (fn == nullptr || !fn->doesThisDeclarationHaveABody()) return;
    if (!InProjectCode(result.Context->getSourceManager(), fn->getLocation()))
      return;
    LockNestVisitor visitor(*result.Context);
    visitor.TraverseStmt(fn->getBody());
  }
};

// ---------------------------------------------------------------------------
// Check 3: ghba-blocking-on-event-thread
// ---------------------------------------------------------------------------

// True when `role` names a ghba::ThreadRole field/variable whose name marks
// it as the event/io thread's.
bool IsEventRole(const Expr* role) {
  role = role->IgnoreParenImpCasts();
  const ValueDecl* vd = nullptr;
  if (const auto* me = dyn_cast<MemberExpr>(role)) {
    vd = me->getMemberDecl();
  } else if (const auto* dre = dyn_cast<DeclRefExpr>(role)) {
    vd = dre->getDecl();
  }
  if (vd == nullptr) return false;
  if (!IsNamed(RecordOf(vd->getType()), "ghba::ThreadRole")) return false;
  std::string name = vd->getNameAsString();
  llvm::StringRef ref(name);
  return ref.contains_insensitive("io") || ref.contains_insensitive("event");
}

// True when `fd` is annotated GHBA_REQUIRES(x) where x is an event role.
bool IsEventThreadFunction(const FunctionDecl* fd) {
  for (const auto* attr : fd->specific_attrs<RequiresCapabilityAttr>()) {
    for (const Expr* arg : attr->args()) {
      if (IsEventRole(arg)) return true;
    }
  }
  return false;
}

// True when `vd` is `ghba::ThreadRoleGuard g(&<event role>)`: from here to
// the end of its scope the thread is the event thread.
bool IsEventRoleGuard(const VarDecl* vd) {
  if (!IsNamed(RecordOf(vd->getType()), "ghba::ThreadRoleGuard")) return false;
  const Expr* init = vd->getInit();
  if (init == nullptr) return false;
  const auto* ctor = dyn_cast<CXXConstructExpr>(init->IgnoreImplicit());
  if (ctor == nullptr || ctor->getNumArgs() < 1) return false;
  const auto* addr =
      dyn_cast<UnaryOperator>(ctor->getArg(0)->IgnoreParenImpCasts());
  if (addr == nullptr || addr->getOpcode() != UO_AddrOf) return false;
  return IsEventRole(addr->getSubExpr());
}

// Collects the compound statements that declare an event-role guard.
class EventRoleScopeFinder
    : public RecursiveASTVisitor<EventRoleScopeFinder> {
 public:
  bool TraverseCompoundStmt(CompoundStmt* cs) {
    scopes_.push_back(cs);
    bool keep_going = RecursiveASTVisitor::TraverseCompoundStmt(cs);
    scopes_.pop_back();
    return keep_going;
  }

  bool VisitVarDecl(VarDecl* vd) {
    if (!scopes_.empty() && IsEventRoleGuard(vd)) {
      found.push_back(scopes_.back());
    }
    return true;
  }

  std::vector<CompoundStmt*> found;

 private:
  std::vector<CompoundStmt*> scopes_;
};

// Is `callee` a blocking primitive? POSIX names are matched only for
// global/extern-C functions so an unrelated method named e.g. sleep() is
// not flagged; project blockers are matched by qualified name.
bool IsBlockingCallee(const FunctionDecl* callee, std::string* label) {
  static const std::set<std::string> kPosix = {
      "fsync",  "fdatasync", "sync",    "sleep",  "usleep",
      "nanosleep", "poll",   "ppoll",   "select", "pselect",
      "connect", "accept",   "flock",   "msync",
  };
  static const std::set<std::string> kQualified = {
      "std::this_thread::sleep_for",
      "std::this_thread::sleep_until",
      "ghba::TcpConnection::Connect",
      "ghba::TcpConnection::SendFrame",
      "ghba::TcpConnection::RecvFrame",
      "ghba::TcpConnection::SendAll",
      "ghba::TcpConnection::RecvAll",
  };
  std::string qualified = callee->getQualifiedNameAsString();
  if (kQualified.count(qualified) != 0) {
    *label = qualified;
    return true;
  }
  const DeclContext* dc = callee->getDeclContext();
  bool global_or_extern_c =
      dc->isTranslationUnit() || dc->isExternCContext() ||
      (isa<NamespaceDecl>(dc) && callee->isExternC());
  if (global_or_extern_c && kPosix.count(callee->getNameAsString()) != 0) {
    *label = callee->getNameAsString();
    return true;
  }
  return false;
}

class BlockingCallScanner : public RecursiveASTVisitor<BlockingCallScanner> {
 public:
  BlockingCallScanner(ASTContext& ctx, const FunctionDecl* root,
                      std::set<const FunctionDecl*>* visited)
      : ctx_(ctx), root_(root), visited_(visited) {}

  bool VisitCallExpr(CallExpr* call) {
    const FunctionDecl* callee = call->getDirectCallee();
    if (callee == nullptr) return true;
    std::string label;
    if (IsBlockingCallee(callee, &label)) {
      const SourceManager& sm = ctx_.getSourceManager();
      if (InProjectCode(sm, call->getBeginLoc())) {
        Report(sm, call->getBeginLoc(), "ghba-blocking-on-event-thread",
               "blocking call '" + label + "' reachable from event-thread "
               "function '" + root_->getQualifiedNameAsString() +
               "'; the epoll loop must never block outside epoll_wait");
      }
      return true;
    }
    // Follow same-TU calls so helpers invoked from the event thread are
    // covered too ("reachable from", not just "inside").
    const FunctionDecl* def = callee->getDefinition();
    if (def != nullptr && def->hasBody() && visited_->insert(def).second) {
      BlockingCallScanner nested(ctx_, root_, visited_);
      nested.TraverseStmt(def->getBody());
    }
    return true;
  }

 private:
  ASTContext& ctx_;
  const FunctionDecl* root_;
  std::set<const FunctionDecl*>* visited_;
};

class EventThreadCallback : public MatchFinder::MatchCallback {
 public:
  void run(const MatchFinder::MatchResult& result) override {
    const auto* fn = result.Nodes.getNodeAs<FunctionDecl>("fn");
    if (fn == nullptr || !fn->doesThisDeclarationHaveABody()) return;
    if (IsEventThreadFunction(fn)) {
      Scan(*result.Context, fn, fn->getBody());
      return;
    }
    // An unannotated function that adopts the event role itself (the
    // event loop's thread body) is a root from its guard's scope on.
    EventRoleScopeFinder finder;
    finder.TraverseStmt(fn->getBody());
    for (CompoundStmt* scope : finder.found) {
      Scan(*result.Context, fn, scope);
    }
  }

 private:
  static void Scan(ASTContext& ctx, const FunctionDecl* fn, Stmt* body) {
    std::set<const FunctionDecl*> visited = {fn};
    BlockingCallScanner scanner(ctx, fn, &visited);
    scanner.TraverseStmt(body);
  }
};

}  // namespace

int main(int argc, const char** argv) {
  auto expected_parser =
      tooling::CommonOptionsParser::create(argc, argv, GhbaTidyCategory);
  if (!expected_parser) {
    llvm::errs() << llvm::toString(expected_parser.takeError()) << "\n";
    return 2;
  }
  tooling::CommonOptionsParser& options = *expected_parser;
  tooling::ClangTool tool(options.getCompilations(),
                          options.getSourcePathList());

  MatchFinder finder;

  UncheckedStatusCallback unchecked;
  finder.addMatcher(callExpr().bind("call"), &unchecked);

  MutexRankDeclCallback rank_decl;
  finder.addMatcher(
      fieldDecl(hasType(cxxRecordDecl(hasName("::ghba::Mutex"))))
          .bind("field"),
      &rank_decl);
  finder.addMatcher(
      varDecl(hasType(cxxRecordDecl(hasName("::ghba::Mutex")))).bind("var"),
      &rank_decl);

  MutexRankNestCallback rank_nest;
  finder.addMatcher(functionDecl(hasBody(compoundStmt())).bind("fn"),
                    &rank_nest);

  EventThreadCallback event_thread;
  finder.addMatcher(functionDecl(hasBody(compoundStmt())).bind("fn"),
                    &event_thread);

  int run_status =
      tool.run(tooling::newFrontendActionFactory(&finder).get());
  if (run_status != 0) {
    llvm::errs() << "ghba-tidy: compilation errors while analyzing\n";
    return 2;
  }
  if (g_diag_count > 0) {
    llvm::errs() << "ghba-tidy: " << g_diag_count << " diagnostic(s)\n";
    return 1;
  }
  return 0;
}
