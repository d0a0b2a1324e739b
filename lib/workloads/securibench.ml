(** A micro-benchmark suite in the spirit of Stanford SecuriBench Micro
    (cited by the paper; its Refl1 case inspired the Figure 1 program).

    Each case is a tiny servlet with a known number of vulnerable sinks.
    [expected] is the number of issues a sound thin-slicing-based analysis
    reports with the hybrid configuration; where that deliberately differs
    from ground truth the case says so:

    - [Pred*] cases leak only through control dependence, which thin slices
      exclude by design (§3.2) — expected 0;
    - [StrongUpdates*] cases overwrite tainted state before the sink, but a
      flow-insensitive heap cannot see the overwrite — expected 1 (a known
      false positive of the approach). *)

type case = {
  sb_name : string;
  sb_description : string;
  sb_source : string;
  sb_expected : int;      (* issues under Hybrid_unbounded *)
  sb_vulnerable : int;    (* semantically vulnerable sinks *)
}

let case sb_name sb_description ?(vulnerable = -1) sb_expected sb_source =
  { sb_name; sb_description; sb_source; sb_expected;
    sb_vulnerable = (if vulnerable >= 0 then vulnerable else sb_expected) }

let cases : case list =
  [ (* ---------------- Basic ---------------- *)
    case "Basic1" "simplest direct flow" 1
      {|class Basic1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            resp.getWriter().println(s);
          }
        }|};
    case "Basic2" "flow through a local chain" 1
      {|class Basic2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s1 = req.getParameter("name");
            String s2 = s1;
            String s3 = s2;
            resp.getWriter().println(s3);
          }
        }|};
    case "Basic3" "flow through string concatenation" 1
      {|class Basic3 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            resp.getWriter().println("<b>" + s + "</b>");
          }
        }|};
    case "Basic4" "flow through StringBuffer" 1
      {|class Basic4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            StringBuffer sb = new StringBuffer();
            sb.append("Hello ");
            sb.append(req.getParameter("name"));
            resp.getWriter().println(sb.toString());
          }
        }|};
    case "Basic5" "two sources, one sink" 1
      {|class Basic5 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String a = req.getParameter("a");
            String b = req.getHeader("b");
            resp.getWriter().println(a + b);
          }
        }|};
    case "Basic6" "one source, two sinks" 2
      {|class Basic6 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            PrintWriter w = resp.getWriter();
            w.println(s);
            w.print(s);
          }
        }|};
    case "Basic7" "untainted constant" 0
      {|class Basic7 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println("hello world");
          }
        }|};
    case "Basic8" "tainted header into response header" 1
      {|class Basic8 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.addHeader("X-Echo", req.getHeader("X-In"));
          }
        }|};
    case "Basic9" "flow through a ternary" 1
      {|class Basic9 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            String out = s == null ? "anon" : s;
            resp.getWriter().println(out);
          }
        }|};
    case "Basic10" "integer arithmetic does not launder taint" 1
      {|class Basic10 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("count");
            int n = Integer.parseInt(s);
            resp.getWriter().println("you said " + n + " -> " + s);
          }
        }|};
    (* ---------------- Aliasing ---------------- *)
    case "Aliasing1" "aliased object field" 1
      {|class AHolder1 { String f; }
        class Aliasing1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            AHolder1 a = new AHolder1();
            AHolder1 b = a;
            a.f = req.getParameter("name");
            resp.getWriter().println(b.f);
          }
        }|};
    case "Aliasing2" "distinct objects do not alias" 0
      {|class AHolder2 { String f; }
        class Aliasing2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            AHolder2 a = new AHolder2();
            AHolder2 b = new AHolder2();
            a.f = req.getParameter("name");
            b.f = "safe";
            resp.getWriter().println(b.f);
          }
        }|};
    case "Aliasing3" "alias established through a call" 1
      {|class AHolder3 { String f; }
        class Aliasing3 extends HttpServlet {
          AHolder3 pick(AHolder3 x) { return x; }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            AHolder3 a = new AHolder3();
            AHolder3 b = this.pick(a);
            a.f = req.getParameter("name");
            resp.getWriter().println(b.f);
          }
        }|};
    case "Aliasing4" "array element aliasing" 1
      {|class Aliasing4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String[] arr = new String[2];
            arr[0] = req.getParameter("name");
            String out = arr[1];
            resp.getWriter().println(out);
          }
        }|};
    (* Aliasing4 note: array contents are merged (one $elem field), so the
       read of arr[1] sees the write to arr[0] — a deliberate
       over-approximation shared with the paper's implementation *)
    (* ---------------- Collections ---------------- *)
    case "Collections1" "through an ArrayList" 1
      {|class Collections1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            ArrayList l = new ArrayList();
            l.add(req.getParameter("name"));
            resp.getWriter().println((String) l.get(0));
          }
        }|};
    case "Collections2" "through an iterator" 1
      {|class Collections2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            ArrayList l = new ArrayList();
            l.add(req.getParameter("name"));
            Iterator it = l.iterator();
            resp.getWriter().println((String) it.next());
          }
        }|};
    case "Collections3" "two lists, only one tainted" 1
      {|class Collections3 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            ArrayList dirty = new ArrayList();
            ArrayList clean = new ArrayList();
            dirty.add(req.getParameter("name"));
            clean.add("safe");
            PrintWriter w = resp.getWriter();
            w.println((String) dirty.get(0));
            w.println((String) clean.get(0));
          }
        }|}
      ~vulnerable:1;
    case "Collections4" "map with same constant key" 1
      {|class Collections4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            HashMap m = new HashMap();
            m.put("k", req.getParameter("name"));
            resp.getWriter().println((String) m.get("k"));
          }
        }|};
    case "Collections5" "map with different constant keys" 0
      {|class Collections5 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            HashMap m = new HashMap();
            m.put("dirty", req.getParameter("name"));
            m.put("clean", "safe");
            resp.getWriter().println((String) m.get("clean"));
          }
        }|};
    case "Collections6" "unknown key reads everything" 1
      {|class Collections6 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            HashMap m = new HashMap();
            m.put("dirty", req.getParameter("name"));
            resp.getWriter().println((String) m.get(req.getQueryString()));
          }
        }|};
    case "Collections7" "vector through Enumeration" 1
      {|class Collections7 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            Vector v = new Vector();
            v.addElement(req.getParameter("name"));
            Enumeration e = v.elements();
            resp.getWriter().println((String) e.nextElement());
          }
        }|};
    (* ---------------- Data structures ---------------- *)
    case "DataStructures1" "taint in a field" 1
      {|class DS1Node { String data; }
        class DataStructures1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            DS1Node n = new DS1Node();
            n.data = req.getParameter("name");
            resp.getWriter().println(n.data);
          }
        }|};
    case "DataStructures2" "linked pair" 1
      {|class DS2Node { String data; DS2Node next; }
        class DataStructures2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            DS2Node a = new DS2Node();
            DS2Node b = new DS2Node();
            a.next = b;
            b.data = req.getParameter("name");
            resp.getWriter().println(a.next.data);
          }
        }|};
    case "DataStructures3" "taint carrier into the sink" 1
      {|class DS3Box {
          String content;
          public DS3Box(String c) { this.content = c; }
          public String toString() { return this.content; }
        }
        class DataStructures3 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            DS3Box box = new DS3Box(req.getParameter("name"));
            resp.getWriter().println(box);
          }
        }|};
    case "DataStructures4" "clean carrier into the sink" 0
      {|class DS4Box {
          String content;
          public DS4Box(String c) { this.content = c; }
        }
        class DataStructures4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            DS4Box box = new DS4Box("safe");
            resp.getWriter().println(box);
            resp.setContentType(s);
          }
        }|};
    case "DataStructures5" "static field channel" 1
      {|class DS5Chan { static String slot; }
        class DataStructures5 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            DS5Chan.slot = req.getParameter("name");
            resp.getWriter().println(DS5Chan.slot);
          }
        }|};
    (* ---------------- Factories ---------------- *)
    case "Factories1" "factory-made wrapper" 1
      {|class F1Box { String v; }
        class Factories1 extends HttpServlet {
          F1Box make(String s) { F1Box b = new F1Box(); b.v = s; return b; }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            F1Box b = this.make(req.getParameter("name"));
            resp.getWriter().println(b.v);
          }
        }|};
    case "Factories2" "two factory calls, one tainted (heap merge FP)" 2
      ~vulnerable:1
      {|class F2Box { String v; }
        class Factories2 extends HttpServlet {
          F2Box make(String s) { F2Box b = new F2Box(); b.v = s; return b; }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            F2Box dirty = this.make(req.getParameter("name"));
            F2Box clean = this.make("safe");
            PrintWriter w = resp.getWriter();
            w.println(dirty.v);
            w.println(clean.v);
          }
        }|};
    case "Factories3" "library factory disambiguated by call site" 1
      {|class Factories3 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            Runtime r1 = Runtime.getRuntime();
            r1.exec(req.getParameter("cmd"));
          }
        }|};
    (* ---------------- Interprocedural ---------------- *)
    case "Inter1" "through one call" 1
      {|class Inter1 extends HttpServlet {
          String id(String s) { return s; }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(this.id(req.getParameter("name")));
          }
        }|};
    case "Inter2" "two call sites of the same callee stay separate" 1
      {|class Inter2 extends HttpServlet {
          String id(String s) { return s; }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String dirty = this.id(req.getParameter("name"));
            String clean = this.id("safe");
            PrintWriter w = resp.getWriter();
            w.println(dirty);
            w.println(clean);
          }
        }|};
    case "Inter3" "through a call chain" 1
      {|class Inter3 extends HttpServlet {
          String a(String s) { return this.b(s); }
          String b(String s) { return this.c(s); }
          String c(String s) { return s; }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(this.a(req.getParameter("name")));
          }
        }|};
    case "Inter4" "virtual dispatch to the overriding method" 1
      {|class I4Base {
          String render(String s) { return "safe"; }
        }
        class I4Echo extends I4Base {
          String render(String s) { return s; }
        }
        class Inter4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            I4Base r = new I4Echo();
            resp.getWriter().println(r.render(req.getParameter("name")));
          }
        }|};
    case "Inter5" "dispatch to the non-echoing override" 0
      {|class I5Base {
          String render(String s) { return s; }
        }
        class I5Safe extends I5Base {
          String render(String s) { return "safe"; }
        }
        class Inter5 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            I5Safe r = new I5Safe();
            resp.getWriter().println(r.render(req.getParameter("name")));
          }
        }|};
    case "Inter6" "sink inside the callee" 1
      {|class Inter6 extends HttpServlet {
          void show(PrintWriter w, String s) { w.println(s); }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            this.show(resp.getWriter(), req.getParameter("name"));
          }
        }|};
    case "Inter7" "source inside the callee" 1
      {|class Inter7 extends HttpServlet {
          String fetch(HttpServletRequest req) { return req.getParameter("name"); }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(this.fetch(req));
          }
        }|};
    (* ---------------- Predicates (control dependence) ---------------- *)
    case "Pred1" "leak only through a branch condition" 0 ~vulnerable:1
      {|class Pred1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            String out = "no";
            if (s.equals("admin")) { out = "yes"; }
            resp.getWriter().println(out);
          }
        }|};
    case "Pred2" "value flow guarded by a branch is still value flow" 1
      {|class Pred2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            String out = "no";
            if (s.length() > 3) { out = s; }
            resp.getWriter().println(out);
          }
        }|};
    (* ---------------- Reflection ---------------- *)
    case "Refl1" "constant forName + getMethod + invoke" 1
      {|class R1Target {
          public String id(String s) { return s; }
        }
        class Refl1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            Class k = Class.forName("R1Target");
            Method m = k.getMethod("id");
            Object t = k.newInstance();
            String out = (String) m.invoke(t, new Object[] { req.getParameter("name") });
            resp.getWriter().println(out);
          }
        }|};
    case "Refl2" "newInstance of a constant class" 1
      {|class R2Echo {
          public String go(String s) { return s; }
        }
        class Refl2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            R2Echo e = (R2Echo) Class.forName("R2Echo").newInstance();
            resp.getWriter().println(e.go(req.getParameter("name")));
          }
        }|};
    (* ---------------- Sanitizers ---------------- *)
    case "Sanitizers1" "URL-encoded output is endorsed" 0
      {|class Sanitizers1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            resp.getWriter().println(URLEncoder.encode(s));
          }
        }|};
    case "Sanitizers2" "sanitizing one copy leaves the other tainted" 1
      {|class Sanitizers2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            String safe = URLEncoder.encode(s);
            PrintWriter w = resp.getWriter();
            w.println(safe);
            w.println(s);
          }
        }|};
    case "Sanitizers3" "wrong sanitizer for the vector" 1
      {|class Sanitizers3 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = Sanitizer.escapeSql(req.getParameter("name"));
            resp.getWriter().println(s);
          }
        }|};
    case "Sanitizers4" "SQL escaping endorses the query" 0
      {|class Sanitizers4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String u = Sanitizer.escapeSql(req.getParameter("u"));
            Connection c = DriverManager.getConnection("jdbc:db");
            Statement st = c.createStatement();
            st.executeQuery("SELECT * FROM t WHERE u='" + u + "'");
          }
        }|};
    (* ---------------- Session ---------------- *)
    case "Session1" "same attribute key" 1
      {|class Session1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            HttpSession s = req.getSession();
            s.setAttribute("user", req.getParameter("name"));
            resp.getWriter().println((String) s.getAttribute("user"));
          }
        }|};
    case "Session2" "different attribute keys" 0
      {|class Session2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            HttpSession s = req.getSession();
            s.setAttribute("user", req.getParameter("name"));
            s.setAttribute("lang", "en");
            resp.getWriter().println((String) s.getAttribute("lang"));
          }
        }|};
    (* ---------------- Strong updates ---------------- *)
    case "StrongUpdates1" "overwrite before the sink (known FP)" 1
      ~vulnerable:0
      {|class SU1Box { String v; }
        class StrongUpdates1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            SU1Box b = new SU1Box();
            b.v = req.getParameter("name");
            b.v = "safe";
            resp.getWriter().println(b.v);
          }
        }|};
    (* ---------------- Exceptions ---------------- *)
    case "Exceptions1" "caught exception rendered to output" 1
      {|class Exceptions1 extends HttpServlet {
          void boom() { throw new Exception("secret"); }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            try { this.boom(); }
            catch (Exception e) { resp.getWriter().println(e); }
          }
        }|};
    case "Exceptions2" "exception swallowed silently" 0
      {|class Exceptions2 extends HttpServlet {
          void boom() { throw new Exception("secret"); }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            try { this.boom(); }
            catch (Exception e) { resp.setContentType("text/plain"); }
          }
        }|};
    (* ---------------- Arrays ---------------- *)
    case "Arrays1" "through an array slot" 1
      {|class Arrays1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String[] a = new String[4];
            a[0] = req.getParameter("name");
            resp.getWriter().println(a[0]);
          }
        }|};
    case "Arrays2" "two arrays, only one tainted" 1
      {|class Arrays2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String[] dirty = new String[2];
            String[] clean = new String[2];
            dirty[0] = req.getParameter("name");
            clean[0] = "safe";
            resp.getWriter().println(clean[0]);
            resp.getWriter().println(dirty[0]);
          }
        }|};
    case "Arrays3" "array passed to a callee" 1
      {|class Arrays3 extends HttpServlet {
          void dump(PrintWriter w, String[] a) { w.println(a[0]); }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String[] a = new String[1];
            a[0] = req.getParameter("name");
            this.dump(resp.getWriter(), a);
          }
        }|};
    case "Arrays4" "tainted array from getParameterValues" 1
      {|class Arrays4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String[] vals = req.getParameterValues("name");
            resp.getWriter().println(vals);
          }
        }|};
    case "Arrays5" "System.arraycopy transfers contents" 1
      {|class Arrays5 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String[] src = new String[1];
            String[] dst = new String[1];
            src[0] = req.getParameter("name");
            System.arraycopy(src, 0, dst, 0, 1);
            resp.getWriter().println(dst[0]);
          }
        }|};
    (* ---------------- Strings ---------------- *)
    case "Strings1" "StringBuilder chain" 1
      {|class Strings1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            StringBuilder sb = new StringBuilder("prefix:");
            sb.append(req.getParameter("name"));
            sb.append(":suffix");
            resp.getWriter().println(sb.toString());
          }
        }|};
    case "Strings2" "substring keeps taint" 1
      {|class Strings2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            resp.getWriter().println(s.substring(0, 3));
          }
        }|};
    case "Strings3" "case conversion keeps taint" 1
      {|class Strings3 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            resp.getWriter().println(s.toUpperCase().trim());
          }
        }|};
    case "Strings4" "length is not tainted data" 0
      {|class Strings4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            int n = s.length();
            resp.getWriter().println("length " + n);
          }
        }|};
    case "Strings5" "String.valueOf of a tainted value" 1
      {|class Strings5 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            resp.getWriter().println(String.valueOf(s));
          }
        }|};
    (* ---------------- More interprocedural ---------------- *)
    case "Inter8" "recursion" 1
      {|class Inter8 extends HttpServlet {
          String bounce(String s, int n) {
            if (n > 0) { return this.bounce(s, n - 1); }
            return s;
          }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(this.bounce(req.getParameter("name"), 3));
          }
        }|};
    case "Inter9" "static helper" 1
      {|class I9Util {
          static String decorate(String s) { return "[" + s + "]"; }
        }
        class Inter9 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(I9Util.decorate(req.getParameter("name")));
          }
        }|};
    case "Inter10" "taint returned through two levels of wrapping" 1
      {|class I10Outer {
          I10Inner inner;
          public I10Outer(I10Inner i) { this.inner = i; }
        }
        class I10Inner {
          String data;
          public I10Inner(String d) { this.data = d; }
        }
        class Inter10 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            I10Outer o = new I10Outer(new I10Inner(req.getParameter("name")));
            resp.getWriter().println(o.inner.data);
          }
        }|};
    (* ---------------- Request attributes & cross-servlet ---------------- *)
    case "Session3" "request attributes with constant keys" 1
      {|class Session3 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            req.setAttribute("payload", req.getParameter("name"));
            req.setAttribute("mode", "plain");
            PrintWriter w = resp.getWriter();
            w.println((String) req.getAttribute("payload"));
            w.println((String) req.getAttribute("mode"));
          }
        }|};
    case "Session4" "cross-servlet flow via a static field" 1
      {|class S4Shared { static String slot; }
        class Session4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            S4Shared.slot = req.getParameter("name");
          }
        }
        class Session4Reader extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(S4Shared.slot);
          }
        }|};
    (* ---------------- Other attack vectors ---------------- *)
    case "Vectors1" "command injection" 1
      {|class Vectors1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            Runtime.getRuntime().exec("ping " + req.getParameter("host"));
          }
        }|};
    case "Vectors2" "path traversal into FileReader" 1
      {|class Vectors2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            FileReader r = new FileReader("/data/" + req.getParameter("doc"));
          }
        }|};
    case "Vectors3" "request dispatcher with tainted path" 1
      {|class Vectors3 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            RequestDispatcher d = req.getRequestDispatcher(req.getParameter("page"));
            d.forward(req, resp);
          }
        }|};
    case "Vectors4" "cookie value is untrusted" 1
      {|class Vectors4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            Cookie[] cs = req.getCookies();
            Cookie c = cs[0];
            resp.getWriter().println(c.getValue());
          }
        }|};
    case "Vectors5" "header splitting via addHeader" 1
      {|class Vectors5 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.addHeader("Location", req.getParameter("next"));
          }
        }|};
    case "Vectors6" "by-reference source readFully" 1
      {|class Vectors6 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            RandomAccessFile f = new RandomAccessFile("upload.bin", "r");
            String[] buf = new String[16];
            f.readFully(buf);
            resp.getWriter().println(buf[0]);
          }
        }|};
    (* ---------------- Control flow ---------------- *)
    case "Control1" "value flow through a switch case" 1
      {|class Control1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String mode = req.getParameter("mode");
            String payload = req.getParameter("payload");
            String out = "none";
            switch (mode) {
              case "echo": out = payload; break;
              case "quiet": out = "silence"; break;
              default: out = "other";
            }
            resp.getWriter().println(out);
          }
        }|};
    case "Control2" "do-while carries taint" 1
      {|class Control2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String acc = "";
            int i = 0;
            do {
              acc = acc + req.getParameter("chunk");
              i = i + 1;
            } while (i < 3);
            resp.getWriter().println(acc);
          }
        }|};
    case "Refl3" "forName on a concatenated constant" 1
      {|class R3Deep {
          public String id(String s) { return s; }
        }
        class Refl3 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String prefix = "R3";
            Class k = Class.forName(prefix + "Deep");
            R3Deep t = (R3Deep) k.newInstance();
            resp.getWriter().println(t.id(req.getParameter("x")));
          }
        }|};
    (* ---------------- Casting ---------------- *)
    case "Casting1" "taint survives an upcast/downcast pair" 1
      {|class Casting1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            Object o = req.getParameter("name");
            String s = (String) o;
            resp.getWriter().println(s);
          }
        }|};
    case "Casting2" "taint through Object-typed helper" 1
      {|class Casting2 extends HttpServlet {
          Object wrap(Object o) { return o; }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = (String) this.wrap(req.getParameter("name"));
            resp.getWriter().println(s);
          }
        }|};
    (* ---------------- Fields & inheritance ---------------- *)
    case "Fields1" "inherited field carries taint" 1
      {|class FBase1 { String shared; }
        class Fields1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            FChild1 c = new FChild1();
            c.shared = req.getParameter("name");
            resp.getWriter().println(c.shared);
          }
        }
        class FChild1 extends FBase1 { }|};
    case "Fields2" "sibling instances do not alias" 0
      {|class FNode2 { String data; }
        class Fields2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            FNode2 dirty = new FNode2();
            FNode2 clean = new FNode2();
            dirty.data = req.getParameter("name");
            clean.data = "safe";
            resp.getWriter().println(clean.data);
          }
        }|};
    case "Fields3" "taint via field of 'this'" 1
      {|class Fields3 extends HttpServlet {
          String stash;
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            this.stash = req.getParameter("name");
            this.show(resp.getWriter());
          }
          void show(PrintWriter w) { w.println(this.stash); }
        }|};
    case "Fields4" "static initializer value is trusted" 0
      {|class FConf4 { static String banner = "welcome"; }
        class Fields4 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(FConf4.banner);
          }
        }|};
    (* ---------------- Sessions across servlets ---------------- *)
    case "Session5" "session attribute crosses servlets" 1
      {|class Session5 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            HttpSession s = req.getSession();
            s.setAttribute("handle", req.getParameter("h"));
          }
        }
        class Session5Reader extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            HttpSession s = req.getSession();
            resp.getWriter().println((String) s.getAttribute("handle"));
          }
        }|};
    (* ---------------- Interfaces ---------------- *)
    case "Interfaces1" "flow through an interface method" 1
      {|interface IFmt1 {
          String fmt(String s);
        }
        class IEcho1 implements IFmt1 {
          public String fmt(String s) { return s; }
        }
        class Interfaces1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            IFmt1 f = new IEcho1();
            resp.getWriter().println(f.fmt(req.getParameter("name")));
          }
        }|};
    case "Interfaces2" "only the instantiated implementation runs" 0
      {|interface IFmt2 {
          String fmt(String s);
        }
        class IEcho2 implements IFmt2 {
          public String fmt(String s) { return s; }
        }
        class ISafe2 implements IFmt2 {
          public String fmt(String s) { return "safe"; }
        }
        class Interfaces2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            IFmt2 f = new ISafe2();
            resp.getWriter().println(f.fmt(req.getParameter("name")));
          }
        }|};
    (* ---------------- Sanitizer subtleties ---------------- *)
    case "Sanitizers5" "sanitizing the copy, printing the original" 1
      {|class Sanitizers5 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            String t = s;
            String clean = URLEncoder.encode(t);
            resp.getWriter().println(s);
          }
        }|};
    case "Sanitizers6" "double encoding is still clean" 0
      {|class Sanitizers6 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = URLEncoder.encode(URLEncoder.encode(req.getParameter("n")));
            resp.getWriter().println(s);
          }
        }|};
    case "Sanitizers7" "sanitizer inside a helper" 0
      {|class Sanitizers7 extends HttpServlet {
          String clean(String s) { return URLEncoder.encode(s); }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(this.clean(req.getParameter("n")));
          }
        }|};
    (* ---------------- Info leak ---------------- *)
    case "Leak1" "system property to output" 1
      {|class Leak1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(System.getProperty("java.home"));
          }
        }|};
    case "Leak2" "exception message concatenated" 1
      {|class Leak2 extends HttpServlet {
          void fragile() { throw new RuntimeException("db password"); }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            try { this.fragile(); }
            catch (RuntimeException e) {
              resp.getWriter().println("error: " + e.getMessage());
            }
          }
        }|};
    (* ---------------- More dictionaries ---------------- *)
    case "Dict1" "Hashtable behaves like HashMap" 1
      {|class Dict1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            Hashtable h = new Hashtable();
            h.put("v", req.getParameter("v"));
            h.put("w", "safe");
            PrintWriter out = resp.getWriter();
            out.println((String) h.get("v"));
            out.println((String) h.get("w"));
          }
        }|};
    case "Dict2" "Properties with constant keys" 0
      {|class Dict2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            Properties p = new Properties();
            p.setProperty("greeting", "hello");
            p.setProperty("user", req.getParameter("u"));
            resp.getWriter().println(p.getProperty("greeting"));
          }
        }|};
    case "Dict3" "ServletContext attributes" 1
      {|class Dict3 extends HttpServlet {
          ServletContext ctx;
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            ServletContext c = new ServletContext();
            c.setAttribute("motd", req.getParameter("m"));
            resp.getWriter().println((String) c.getAttribute("motd"));
          }
        }|};
    (* ---------------- Class initializers ---------------- *)
    case "Clinit1" "static initializer runs" 1
      {|class CConf1 {
          static String origin = CProvider1.fetch();
        }
        class CProvider1 {
          static String fetch() { return "const"; }
        }
        class Clinit1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            CConf1.origin = req.getParameter("o");
            resp.getWriter().println(CConf1.origin);
          }
        }|};
    (* ---------------- Object arrays as carriers ---------------- *)
    case "Carriers1" "array of wrappers" 1
      {|class CBox1 {
          String v;
          public CBox1(String v) { this.v = v; }
          public String toString() { return this.v; }
        }
        class Carriers1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            CBox1[] boxes = new CBox1[2];
            boxes[0] = new CBox1(req.getParameter("b"));
            resp.getWriter().println(boxes[0]);
          }
        }|};
    case "Carriers2" "carrier in a list" 1
      {|class CBox2 {
          String v;
          public CBox2(String v) { this.v = v; }
        }
        class Carriers2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            ArrayList l = new ArrayList();
            l.add(new CBox2(req.getParameter("b")));
            resp.getWriter().println(l.get(0));
          }
        }|};
    (* ---------------- String comparisons ---------------- *)
    case "StringOps1" "equality checks do not launder values" 1
      {|class StringOps1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String s = req.getParameter("name");
            if (s.equals("admin")) {
              resp.getWriter().println(s);
            }
          }
        }|};
    case "StringOps2" "StringBuilder round trip via length" 1
      {|class StringOps2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            StringBuilder sb = new StringBuilder(req.getParameter("q"));
            if (sb.length() > 0) {
              resp.getWriter().println(sb.toString());
            }
          }
        }|};
    (* ---------------- Recursion with heap ---------------- *)
    case "Recursion1" "taint through a recursive list build" 1
      {|class RNode1 { String data; RNode1 next; }
        class Recursion1 extends HttpServlet {
          RNode1 build(int n, String payload) {
            RNode1 node = new RNode1();
            node.data = payload;
            if (n > 0) { node.next = this.build(n - 1, payload); }
            return node;
          }
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            RNode1 head = this.build(3, req.getParameter("p"));
            resp.getWriter().println(head.next.data);
          }
        }|};
    (* ---------------- Multi-servlet ---------------- *)
    case "Multi1" "producer and consumer servlets" 1
      {|class MChannel1 { static String mailbox; }
        class Multi1 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            MChannel1.mailbox = req.getParameter("msg");
          }
        }
        class Multi1Reader extends HttpServlet {
          public void doPost(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(MChannel1.mailbox);
          }
        }|};
    case "Multi2" "consumer guarded by encode" 0
      {|class MChannel2 { static String mailbox; }
        class Multi2 extends HttpServlet {
          public void doGet(HttpServletRequest req, HttpServletResponse resp) {
            MChannel2.mailbox = req.getParameter("msg");
          }
        }
        class Multi2Reader extends HttpServlet {
          public void doPost(HttpServletRequest req, HttpServletResponse resp) {
            resp.getWriter().println(URLEncoder.encode(MChannel2.mailbox));
          }
        }|} ]

(** Analyze one case under the given configuration; returns the number of
    reported issues. *)
let run_case ?(algorithm = Core.Config.Hybrid_unbounded) (c : case) : int =
  let input =
    { Core.Taj.name = c.sb_name;
      app_sources = [ c.sb_source ];
      descriptor = "" }
  in
  let analysis =
    Core.Taj.run (Core.Taj.load input) (Core.Config.preset algorithm)
  in
  match analysis.Core.Taj.result with
  | Core.Taj.Completed r -> Core.Report.issue_count r.Core.Taj.report
  | Core.Taj.Did_not_complete _ -> -1
